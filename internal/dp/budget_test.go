package dp

import (
	"errors"
	"math"
	"sync"
	"testing"
)

func TestAccountantBasics(t *testing.T) {
	w, err := NewWindowAccountant(10, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Spend(0, 1, 0.4); err != nil {
		t.Fatal(err)
	}
	if err := w.Spend(1, 1, 0.6); err != nil {
		t.Fatal(err)
	}
	if err := w.Spend(2, 1, 0.01); !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("expected exhaustion, got %v", err)
	}
	// A zero-length charge or a zero ε charges nothing and always fits.
	if err := w.Spend(3, 0, 5); err != nil {
		t.Errorf("empty charge: %v", err)
	}
	if err := w.Spend(3, 4, 0); err != nil {
		t.Errorf("zero-ε charge: %v", err)
	}
	// Step 10's window (0, 10] no longer holds step 0's 0.4.
	if err := w.Spend(10, 1, 0.4); err != nil {
		t.Errorf("t=10 spend should fit: %v", err)
	}
}

// TestAccountantConcurrent: concurrent charges into one window never
// overdraw it, and every refused charge leaves the budget untouched.
func TestAccountantConcurrent(t *testing.T) {
	w, err := NewWindowAccountant(100, 1000)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2000)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				errs <- w.Spend(j, 1, 1)
			}
		}()
	}
	wg.Wait()
	close(errs)
	failures := 0
	for err := range errs {
		if err != nil {
			failures++
		}
	}
	if failures != 1000 {
		t.Errorf("got %d failures, want exactly 1000 (budget 1000 of 2000 spends)", failures)
	}
	if err := w.Spend(99, 1, 1); !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("a full window accepted another charge: %v", err)
	}
}

// TestWindowAccountant: whatever order the charges come in, no window of
// consecutive steps may hold more than the limit, and a refused charge
// charges none of its steps.
func TestWindowAccountant(t *testing.T) {
	type charge struct {
		fromT, n int
		ok       bool
	}
	tests := []struct {
		name    string
		window  int
		limit   float64
		charges []charge
	}{
		{"in order, the window slides", 3, 2, []charge{
			{1, 1, true}, {2, 1, true}, {3, 1, false}, {4, 1, true}, {5, 1, true}, {6, 1, false},
		}},
		{"an earlier step joins a later step's window", 10, 1, []charge{
			{14, 1, true}, {5, 1, false}, {4, 1, true},
		}},
		{"an earlier step between two later ones", 5, 2, []charge{
			{10, 1, true}, {2, 1, true}, {6, 1, true}, {4, 1, false}, {7, 1, false}, {1, 1, true},
		}},
		{"a batch across two later windows", 4, 2, []charge{
			{4, 1, true}, {9, 1, true}, {5, 3, false}, {5, 1, true}, {6, 3, false}, {7, 1, false}, {8, 1, true},
		}},
		{"a refused batch charges none of its steps", 3, 2, []charge{
			{0, 3, false}, {0, 2, true}, {3, 2, true}, {2, 1, false},
		}},
		{"steps at math.MaxInt", 10, 1, []charge{
			{math.MaxInt, 1, true}, {math.MaxInt - 9, 1, false}, {math.MaxInt - 10, 1, true},
			{math.MaxInt, 2, false}, {math.MaxInt - 1, 2, false},
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			w, err := NewWindowAccountant(tc.window, tc.limit)
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range tc.charges {
				err := w.Spend(c.fromT, c.n, 1)
				if c.ok && err != nil {
					t.Errorf("charge %d (%d steps from %d): %v", i, c.n, c.fromT, err)
				}
				if !c.ok && err == nil {
					t.Errorf("charge %d (%d steps from %d) fit, want refused", i, c.n, c.fromT)
				}
			}
		})
	}
}

func TestWindowAccountantValidation(t *testing.T) {
	if _, err := NewWindowAccountant(0, 1); err == nil {
		t.Error("zero window should error")
	}
	if _, err := NewWindowAccountant(5, 0); err == nil {
		t.Error("zero limit should error")
	}
	w, _ := NewWindowAccountant(5, 1)
	for _, eps := range []float64{-0.1, math.NaN()} {
		if err := w.Spend(0, 1, eps); err == nil {
			t.Errorf("spend of %v should error", eps)
		}
	}
	if err := w.Spend(-1, 1, 0.1); err == nil {
		t.Error("negative timestep should error")
	}
	if err := w.Spend(1, 1, 1); err != nil {
		t.Errorf("refused spends charged the budget: %v", err)
	}
}

func TestDeriveIndependence(t *testing.T) {
	a := Derive(42, 1)
	b := Derive(42, 2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("derived streams coincide on %d of 100 draws", same)
	}
	// Determinism: same seed/stream reproduces.
	c1, c2 := Derive(7, 3), Derive(7, 3)
	for i := 0; i < 10; i++ {
		if c1.Float64() != c2.Float64() {
			t.Fatal("Derive is not deterministic")
		}
	}
}
