package metrics

import (
	"math"
	"testing"
)

func TestMeanStd(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean=%g", got)
	}
	if got := Std([]float64{2, 4, 4, 4, 5, 5, 7, 9}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Std=%g, want 2", got)
	}
	if Std([]float64{1}) != 0 {
		t.Fatal("Std single != 0")
	}
}

func TestRMSE(t *testing.T) {
	r, err := RMSE([]float64{1, 2}, []float64{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-math.Sqrt(2)) > 1e-12 {
		t.Fatalf("RMSE=%g", r)
	}
	if _, err := RMSE([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("expected RMSE length error")
	}
	if r, _ := RMSE(nil, nil); r != 0 {
		t.Fatal("empty RMSE should be 0")
	}
}

func TestAUCAndMax(t *testing.T) {
	if AUC([]float64{1, 2, 3}) != 6 {
		t.Fatal("AUC wrong")
	}
	if Max([]float64{1, 5, 2}) != 5 {
		t.Fatal("Max wrong")
	}
}

func TestTailMean(t *testing.T) {
	if got := TailMean([]float64{10, 10, 2, 4}, 0.5); got != 3 {
		t.Fatalf("TailMean=%g, want 3", got)
	}
	if got := TailMean([]float64{7}, 1); got != 7 {
		t.Fatalf("TailMean full=%g", got)
	}
	if TailMean(nil, 0.5) != 0 {
		t.Fatal("TailMean(nil) != 0")
	}
}
