package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"miras/internal/trace"
)

// The golden end-to-end gate: seeded short-horizon runs of the CLI
// pipelines (train, compare, chaos) and of every other experiment driver,
// whose output digests are pinned in testdata/golden.json. A gate digests
// its CSV bytes and, where the driver reports numbers beside its tables,
// those numbers printed in algorithm order (see writeNums). Any behavioural
// drift — a reordered RNG draw, a changed reward term, a float
// reassociation — changes the bytes and fails the gate. Refresh
// deliberately with:
//
//	go test ./internal/experiments/ -run TestGolden -update
//
// The digests are pinned for linux/amd64: Go's math library uses
// per-architecture assembly, so other platforms may legitimately produce
// different low bits. The gate skips elsewhere rather than pinning per-arch
// tables nobody regenerates.
//
// Even on linux/amd64, math.Exp and math.Log take a non-FMA path on a CPU
// without FMA or under GODEBUG=cpu.fma=off, and round some results one ulp
// apart (sim.LogNormal's draws, rand's ziggurat sampler). A gate that prints
// full-precision numbers, or whose decisions those low bits can flip, then
// has a second digest in testdata/golden_nofma.json, which holds only the
// gates that differ there. The process picks the file with expOnFMAPath;
// refresh the second one with
//
//	GODEBUG=cpu.fma=off go test ./internal/experiments/ -run TestGolden -update
var updateGolden = flag.Bool("update", false, "rewrite the digest file this process's math.Exp path selects")

const (
	goldenPath      = "testdata/golden.json"
	goldenNoFMAPath = "testdata/golden_nofma.json"
)

// expOnFMAPath reports whether math.Exp takes its FMA path in this process:
// 0x404759a28795660f is math.Exp(3.84375) there, and the non-FMA path
// rounds it one ulp higher.
func expOnFMAPath() bool {
	return math.Float64bits(math.Exp(3.84375)) == 0x404759a28795660f
}

// goldenCSV produces the named pipeline's CSV bytes at micro scale.
func goldenCSV(t *testing.T, gate string) []byte {
	t.Helper()
	s := microSetup(t, "msd")
	var buf bytes.Buffer
	switch gate {
	case "train":
		res, err := TrainingTrace(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Table.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	case "compare":
		res, err := Compare(s, []int{40, 20, 20}, []string{"stream", "heft", "monad"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Table.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	case "chaos":
		results, err := ChaosCompareAll(s, []string{"stream", "heft", "monad"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteChaosSummary(&buf, results); err != nil {
			t.Fatal(err)
		}
	case "compare-detail":
		algs := []string{"stream", "heft", "monad"}
		res, err := Compare(s, []int{40, 20, 20}, algs, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range algs {
			o := res.Outcomes[name]
			writeCSV(t, &buf, o.ByWorkflow)
			writeNums(&buf, name, o.AUC(), o.TailMean(), float64(o.Completed), o.MeanDelay)
		}
	case "dynamic":
		algs := []string{"stream", "heft", "monad", "hpa", "static"}
		res, err := DynamicLoad(s, algs, nil, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		writeCSV(t, &buf, &res.Table)
		for _, name := range algs {
			o := res.Outcomes[name]
			writeNums(&buf, name, float64(o.Completed), o.MeanDelay)
		}
	case "window":
		res, err := WindowLengthAblation(s, []float64{10, 30})
		if err != nil {
			t.Fatal(err)
		}
		writeCSV(t, &buf, &res.Table)
		writeNums(&buf, "monad", res.MeanDelay...)
		writeNums(&buf, "stream", res.MeanDelayDRS...)
	case "budget":
		algs := []string{"heft", "monad"}
		res, err := BudgetSweep(s, algs, []int{6, 14, 24})
		if err != nil {
			t.Fatal(err)
		}
		writeCSV(t, &buf, &res.Table)
		for _, name := range algs {
			var done []float64
			for _, d := range res.Completed[name] {
				done = append(done, float64(d))
			}
			writeNums(&buf, name, done...)
		}
	case "sample-efficiency":
		trained, err := TrainControllers(s)
		if err != nil {
			t.Fatal(err)
		}
		res, err := SampleEfficiency(s, trained, 2)
		if err != nil {
			t.Fatal(err)
		}
		writeNums(&buf, "sample-efficiency", float64(res.Interactions),
			res.MIRASReturn, res.ModelFreeReturn, float64(res.Episodes))
	case "refine":
		res, err := RefinementAblation(s)
		if err != nil {
			t.Fatal(err)
		}
		writeCSV(t, &buf, &res.Table)
		writeNums(&buf, "refine", res.FinalRefined, res.FinalRaw, res.BestRefined, res.BestRaw)
	case "fig5":
		res, err := ModelAccuracy(s)
		if err != nil {
			t.Fatal(err)
		}
		writeCSV(t, &buf, &res.RewardTable)
		writeCSV(t, &buf, &res.WIPTable)
		writeNums(&buf, "fig5", res.OneStepRMSE, res.IterRMSE,
			float64(res.TrainPoints), float64(res.TestPoints), res.FinalTrainLoss)
	case "noise":
		res, err := NoiseAblation(s)
		if err != nil {
			t.Fatal(err)
		}
		writeCSV(t, &buf, &res.Table)
		writeNums(&buf, "noise", res.FinalParam, res.FinalAction, res.BestParam, res.BestAction,
			res.RawViolationRate)
	default:
		t.Fatalf("unknown golden gate %q", gate)
	}
	return buf.Bytes()
}

func writeCSV(t *testing.T, buf *bytes.Buffer, table *trace.Table) {
	t.Helper()
	if table == nil {
		t.Fatal("missing table")
	}
	if err := table.WriteCSV(buf); err != nil {
		t.Fatal(err)
	}
}

// writeNums prints one labelled row of exact numbers. Gates print rows in
// algorithm order rather than ranging over a result map, so a missing entry
// and a zero one digest differently.
func writeNums(buf *bytes.Buffer, label string, vals ...float64) {
	buf.WriteString(label)
	for _, v := range vals {
		buf.WriteByte(',')
		buf.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	buf.WriteByte('\n')
}

func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read pinned digests (run with -update to create them): %v", err)
	}
	pinned := make(map[string]string)
	if err := json.Unmarshal(data, &pinned); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	return pinned
}

// writeGolden writes digests as indented JSON; encoding/json sorts the keys.
func writeGolden(t *testing.T, path string, digests map[string]string) {
	t.Helper()
	data, err := json.MarshalIndent(digests, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("updated %s: %v", path, digests)
}

func goldenDigest(t *testing.T, gate string) string {
	t.Helper()
	sum := sha256.Sum256(goldenCSV(t, gate))
	return hex.EncodeToString(sum[:])
}

func TestGoldenEndToEnd(t *testing.T) {
	gates := []string{"train", "compare", "chaos", "compare-detail", "dynamic", "window",
		"budget", "sample-efficiency", "refine", "fig5", "noise"}
	// A row for a gate this test does not run would never be checked again:
	// a deleted gate must take its pinned digests with it.
	if !*updateGolden {
		for _, path := range []string{goldenPath, goldenNoFMAPath} {
			for gate := range readGolden(t, path) {
				if !slices.Contains(gates, gate) {
					t.Errorf("%s pins gate %q, which this test does not run", path, gate)
				}
			}
		}
	}
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are pinned for linux/amd64, not %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	if testing.Short() && !*updateGolden {
		t.Skip("golden gate trains a policy; skipped in -short mode")
	}
	fma := expOnFMAPath()

	if *updateGolden {
		digests := make(map[string]string)
		if fma {
			for _, gate := range gates {
				digests[gate] = goldenDigest(t, gate)
			}
			writeGolden(t, goldenPath, digests)
			return
		}
		// Off the FMA path, pin only the gates whose digest differs.
		fmaDigests := readGolden(t, goldenPath)
		for _, gate := range gates {
			if d := goldenDigest(t, gate); d != fmaDigests[gate] {
				digests[gate] = d
			}
		}
		writeGolden(t, goldenNoFMAPath, digests)
		return
	}

	pinned := readGolden(t, goldenPath)
	if !fma {
		for gate, d := range readGolden(t, goldenNoFMAPath) {
			pinned[gate] = d
		}
	}
	for _, gate := range gates {
		gate := gate
		t.Run(gate, func(t *testing.T) {
			want, ok := pinned[gate]
			if !ok {
				t.Fatalf("no pinned digest for gate %q in %s (run with -update)", gate, goldenPath)
			}
			csv := goldenCSV(t, gate)
			sum := sha256.Sum256(csv)
			got := hex.EncodeToString(sum[:])
			if got != want {
				t.Errorf("gate %q drifted (math.Exp FMA path: %v): sha256 %s, pinned %s\nfirst lines:\n%s",
					gate, fma, got, want, firstLines(csv, 4))
			}
		})
	}
}

// firstLines returns up to n leading lines of b for drift diagnostics.
func firstLines(b []byte, n int) []byte {
	idx := 0
	for i := 0; i < n; i++ {
		next := bytes.IndexByte(b[idx:], '\n')
		if next < 0 {
			return b
		}
		idx += next + 1
	}
	return b[:idx]
}
