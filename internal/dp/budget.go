package dp

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
)

// ErrBudgetExhausted is returned when a spend would exceed the privacy
// budget.
var ErrBudgetExhausted = errors.New("dp: privacy budget exhausted")

// WindowAccountant enforces a per-window ε budget over a sliding window of
// timesteps — the natural accounting for PANDA, where users share their
// locations "of the past two weeks". Every release of a location under
// {ε,G}-location privacy consumes ε (sequential composition), and the
// releases within any window of consecutive timesteps may not consume
// more than the limit. It is safe for concurrent use.
type WindowAccountant struct {
	mu     sync.Mutex
	window int
	limit  float64
	spends map[int]float64 // timestep -> ε spent at that step
}

// CheckEpsilon refuses an ε that is not a positive finite number; NaN
// and +Inf pass an eps <= 0 test alone.
func CheckEpsilon(eps float64) error {
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return fmt.Errorf("epsilon must be positive and finite, got %v", eps)
	}
	return nil
}

// NewWindowAccountant returns an accountant limiting total spend within any
// window of `window` consecutive timesteps to `limit`. A limit of +Inf
// is an explicit unlimited budget; NaN is refused, since no spend would
// ever exceed it.
func NewWindowAccountant(window int, limit float64) (*WindowAccountant, error) {
	if window <= 0 {
		return nil, fmt.Errorf("dp: window must be positive, got %d", window)
	}
	if limit <= 0 || math.IsNaN(limit) {
		return nil, fmt.Errorf("dp: window limit must be positive, got %v", limit)
	}
	return &WindowAccountant{window: window, limit: limit, spends: make(map[int]float64)}, nil
}

// Spend charges eps at each of the n timesteps fromT, …, fromT+n-1, or
// returns ErrBudgetExhausted and charges nothing if any window of
// consecutive timesteps that holds one of them would then exceed the
// limit. Steps may be charged in any order: a charge at an earlier step
// counts against the windows that later charges already touch.
func (w *WindowAccountant) Spend(fromT, n int, eps float64) error {
	if eps < 0 || math.IsNaN(eps) {
		return fmt.Errorf("dp: spend must be non-negative, got %v", eps)
	}
	if fromT < 0 {
		return fmt.Errorf("dp: negative timestep %d", fromT)
	}
	if n <= 0 || eps == 0 {
		return nil
	}
	if fromT > math.MaxInt-(n-1) {
		return fmt.Errorf("dp: %d steps from timestep %d pass math.MaxInt", n, fromT)
	}
	last := fromT + n - 1
	w.mu.Lock()
	defer w.mu.Unlock()
	// A window that holds step s ends in [s, s+window-1], so the windows
	// to check end in [fromT, last+window-1] (cut at math.MaxInt: a window
	// ending past it holds a subset of the one ending at it) and hold
	// steps from fromT-window+1 on.
	lo, hi := fromT-(w.window-1), last+min(w.window-1, math.MaxInt-last)
	spent := make(map[int]float64)
	for t, e := range w.spends {
		if t >= lo && t <= hi {
			spent[t] = e
		}
	}
	for i := 0; i < n; i++ {
		spent[fromT+i] += eps
	}
	steps := make([]int, 0, len(spent))
	for t := range spent {
		steps = append(steps, t)
	}
	sort.Ints(steps)
	// Moving a window's end down to the last charged step inside it
	// keeps every charge in it, so checking the windows that end at a
	// charged step in [fromT, hi] covers every window.
	var sum float64
	first := 0
	for _, end := range steps {
		sum += spent[end]
		for steps[first] <= end-w.window {
			sum -= spent[steps[first]]
			first++
		}
		if end >= fromT && sum > w.limit*(1+1e-9) {
			return fmt.Errorf("%w: steps (%d, %d] would spend %.4g of %.4g",
				ErrBudgetExhausted, end-w.window, end, sum, w.limit)
		}
	}
	for i := 0; i < n; i++ {
		w.spends[fromT+i] += eps
	}
	return nil
}
