package sim

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now=%g, want 0", e.Now())
	}
	if e.Step() {
		t.Fatal("Step fired an event on a new engine")
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	e.RunUntil(10)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order=%v, want [1 2 3]", order)
	}
	if e.Now() != 10 {
		t.Fatalf("Now=%g, want 10", e.Now())
	}
}

func TestSimultaneousEventsFireInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Schedule(1, func() { order = append(order, i) })
	}
	e.RunUntil(1)
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous order=%v, want FIFO", order)
		}
	}
}

func TestClockAdvancesToEventTime(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Schedule(5, func() { at = e.Now() })
	e.RunUntil(7)
	if at != 5 {
		t.Fatalf("callback saw Now=%g, want 5", at)
	}
}

func TestCascadingEventsWithinHorizon(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.Schedule(1, func() {
		fired = append(fired, e.Now())
		e.Schedule(1, func() { fired = append(fired, e.Now()) })
	})
	e.RunUntil(3)
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Fatalf("fired=%v, want [1 2]", fired)
	}
}

func TestEventBeyondHorizonDoesNotFire(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(5, func() { fired = true })
	e.RunUntil(4.999)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	e.RunUntil(5)
	if !fired {
		t.Fatal("event at horizon boundary did not fire")
	}
}

// tokenOwner cancels the way the cluster does: it holds a token per live
// event and ignores a call whose token it has dropped.
type tokenOwner struct {
	live  map[uint64]bool
	fired []uint64
}

func (o *tokenOwner) Fire(tok uint64) {
	if o.live[tok] {
		delete(o.live, tok)
		o.fired = append(o.fired, tok)
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	e := NewEngine()
	o := &tokenOwner{live: map[uint64]bool{1: true, 2: true, 3: true}}
	id := e.Register(o)
	e.ScheduleCall(1, id, 1)
	e.ScheduleCall(1, id, 2)
	e.ScheduleCall(3, id, 3)
	delete(o.live, 1) // cancel: the owner drops the token
	e.RunUntil(2)
	if len(o.fired) != 1 || o.fired[0] != 2 {
		t.Fatalf("fired %v, want [2]: the dropped token must not fire", o.fired)
	}
	delete(o.live, 3)
	// The withdrawn record still pops in its slot, as a no-op.
	if !e.Step() || e.Now() != 3 || len(o.fired) != 1 {
		t.Fatalf("withdrawn record: now=%g fired=%v", e.Now(), o.fired)
	}
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestStepFiresOneEvent(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Schedule(1, func() { count++ })
	e.Schedule(2, func() { count++ })
	if !e.Step() {
		t.Fatal("Step returned false with pending events")
	}
	if count != 1 || e.Now() != 1 {
		t.Fatalf("after one Step: count=%d now=%g", count, e.Now())
	}
	if !e.Step() || count != 2 {
		t.Fatal("second Step failed")
	}
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestSchedulePanicsOnNegativeDelay(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Schedule(-1, func() {})
}

func TestScheduleAtPanicsInPast(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() {})
	e.RunUntil(5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.ScheduleAt(4, func() {})
}

func TestRunUntilPanicsInPast(t *testing.T) {
	e := NewEngine()
	e.RunUntil(5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.RunUntil(4)
}

func TestNilCallbackPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Schedule(1, nil)
}

func TestNilHandlerPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Register(nil)
}

// TestUnregisteredHandlerPanics: ScheduleCall takes only an ID that Register
// returned; the reserved zero ID and an ID past the last registration panic
// and schedule nothing.
func TestUnregisteredHandlerPanics(t *testing.T) {
	e := NewEngine()
	id := e.Register(&tokenOwner{})
	for _, bad := range []HandlerID{0, id + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ScheduleCall(id %d) did not panic", bad)
				}
			}()
			e.ScheduleCall(1, bad, 0)
		}()
	}
	if e.Step() {
		t.Fatal("a refused ScheduleCall left an event behind")
	}
}

// TestRecordHoldsNoPointer walks record's fields and fails on any that holds
// a pointer, directly or inside an array or struct: a pointer-free heap is
// one the garbage collector never scans and whose sifts need no write
// barriers.
func TestRecordHoldsNoPointer(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		default:
			t.Errorf("%s is a %s, which holds a pointer", path, typ)
		}
	}
	walk("record", reflect.TypeOf(record{}))
}

// TestNaNTimesPanic: a NaN time compares false against everything, so
// without a guard RunUntil(NaN) would fire every pending event and leave the
// clock at NaN, after which no schedule-in-the-past check could trip.
func TestNaNTimesPanic(t *testing.T) {
	nan := math.NaN()
	for name, op := range map[string]func(e *Engine){
		"ScheduleAt":   func(e *Engine) { e.ScheduleAt(nan, func() {}) },
		"Schedule":     func(e *Engine) { e.Schedule(nan, func() {}) },
		"ScheduleCall": func(e *Engine) { e.ScheduleCall(nan, e.Register(&tokenOwner{}), 0) },
		"RunUntil":     func(e *Engine) { e.RunUntil(nan) },
	} {
		t.Run(name, func(t *testing.T) {
			e := NewEngine()
			fired := false
			e.Schedule(1, func() { fired = true })
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(NaN) did not panic", name)
					}
				}()
				op(e)
			}()
			if fired || e.Now() != 0 {
				t.Fatalf("%s(NaN) fired=%v now=%g, want nothing fired at 0", name, fired, e.Now())
			}
		})
	}
}

// TestScheduleZeroAlloc pins the engine's per-event cost: scheduling and
// firing through ScheduleCall, or through Schedule with a prebuilt callback,
// allocates nothing once the heap and the slot table have grown.
func TestScheduleZeroAlloc(t *testing.T) {
	e := NewEngine()
	id := e.Register(&tokenOwner{})
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.Schedule(Time(i%7), fn)
	}
	for name, schedule := range map[string]func(){
		"ScheduleCall": func() { e.ScheduleCall(0.5, id, 1) },
		"Schedule":     func() { e.Schedule(0.5, fn) },
	} {
		if got := testing.AllocsPerRun(200, func() {
			schedule()
			e.Step()
		}); got != 0 {
			t.Errorf("%s + Step: %g allocs/op, want 0", name, got)
		}
	}
}

func TestDrainFiresEverything(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i), func() { count++ })
	}
	fired := 0
	for e.Step() {
		fired++
	}
	if fired != 10 || count != 10 {
		t.Fatalf("Step fired %d events, count=%d", fired, count)
	}
}

// Property: random schedules always fire in nondecreasing time order.
func TestRandomScheduleOrderingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var fired []Time
		n := 1 + rng.Intn(100)
		for i := 0; i < n; i++ {
			e.Schedule(rng.Float64()*100, func() { fired = append(fired, e.Now()) })
		}
		e.RunUntil(100)
		if len(fired) != n {
			return false
		}
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamsReproducible(t *testing.T) {
	s1 := NewStreams(42)
	s2 := NewStreams(42)
	a := s1.Stream("arrivals")
	b := s2.Stream("arrivals")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-named streams diverged")
		}
	}
}

func TestStreamsIndependentNames(t *testing.T) {
	s := NewStreams(42)
	a := s.Stream("arrivals")
	b := s.Stream("service")
	same := true
	for i := 0; i < 20; i++ {
		if a.Float64() != b.Float64() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("differently named streams produced identical sequences")
	}
}

func TestStreamsDifferentSeedsDiffer(t *testing.T) {
	a := NewStreams(1).Stream("x")
	b := NewStreams(2).Stream("x")
	same := true
	for i := 0; i < 20; i++ {
		if a.Float64() != b.Float64() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical sequences")
	}
}

func TestLogNormalMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const mean, cv = 10.0, 0.5
	d := NewLogNormal(cv)
	n := 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := d.Draw(rng, mean)
		if v <= 0 {
			t.Fatal("LogNormal produced non-positive value")
		}
		sum += v
		sumSq += v * v
	}
	gotMean := sum / float64(n)
	gotStd := math.Sqrt(sumSq/float64(n) - gotMean*gotMean)
	if math.Abs(gotMean-mean) > 0.15 {
		t.Fatalf("LogNormal mean=%g, want %g", gotMean, mean)
	}
	if math.Abs(gotStd/gotMean-cv) > 0.05 {
		t.Fatalf("LogNormal cv=%g, want %g", gotStd/gotMean, cv)
	}
}

func TestLogNormalZeroCVDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, d := range []LogNormal{NewLogNormal(0), {}} {
		if got := d.Draw(rng, 7); got != 7 {
			t.Fatalf("LogNormal cv=0 gave %g, want 7", got)
		}
	}
	if rng.Int63() != rand.New(rand.NewSource(4)).Int63() {
		t.Fatal("a cv=0 draw consumed randomness")
	}
}

// TestLogNormalMatchesFormula: a draw equals exp(ln(mean) − σ²/2 + σ·z) with
// σ² = ln(1 + cv²), computed inline from the same normal variate, bit for
// bit; it includes a cv whose square underflows, which still draws.
func TestLogNormalMatchesFormula(t *testing.T) {
	for _, cv := range []float64{1e-200, 0.1, 0.3, 0.5, 1, 3, 1e100} {
		d := NewLogNormal(cv)
		rng, ref := rand.New(rand.NewSource(8)), rand.New(rand.NewSource(8))
		for i := 0; i < 1000; i++ {
			mean := 0.01 + float64(i)*0.37
			sigma2 := math.Log(1 + cv*cv)
			mu := math.Log(mean) - sigma2/2
			want := math.Exp(mu + math.Sqrt(sigma2)*ref.NormFloat64())
			if got := d.Draw(rng, mean); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("cv %g mean %g: Draw %v, formula %v", cv, mean, got, want)
			}
		}
	}
}

// TestNewLogNormalRejectsBadCV: a negative or NaN cv, or one whose square
// overflows, would turn every draw into NaN.
func TestNewLogNormalRejectsBadCV(t *testing.T) {
	for _, cv := range []float64{-0.1, math.NaN(), math.Inf(1), 1e200} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLogNormal(%g) did not panic", cv)
				}
			}()
			NewLogNormal(cv)
		}()
	}
}

func TestExponentialMean(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var sum float64
	n := 100000
	for i := 0; i < n; i++ {
		sum += Exponential(rng, 3)
	}
	if got := sum / float64(n); math.Abs(got-3) > 0.1 {
		t.Fatalf("Exponential mean=%g, want 3", got)
	}
}

func TestPoissonMean(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, mean := range []float64{0, 0.5, 3, 12, 50} {
		var sum float64
		n := 50000
		for i := 0; i < n; i++ {
			k := Poisson(rng, mean)
			if k < 0 {
				t.Fatal("Poisson returned negative count")
			}
			sum += float64(k)
		}
		got := sum / float64(n)
		tol := 0.05*mean + 0.05
		if math.Abs(got-mean) > tol {
			t.Fatalf("Poisson(%g) mean=%g", mean, got)
		}
	}
}

func TestUniformRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		v := Uniform(rng, 5, 10)
		if v < 5 || v >= 10 {
			t.Fatalf("Uniform out of range: %g", v)
		}
	}
}
