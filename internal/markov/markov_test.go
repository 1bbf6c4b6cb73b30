package markov

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewChainValidation(t *testing.T) {
	if _, err := NewChain(0, nil); err == nil {
		t.Error("zero states should error")
	}
	if _, err := NewChain(2, []float64{1, 0}); err == nil {
		t.Error("wrong matrix size should error")
	}
	if _, err := NewChain(2, []float64{0.5, 0.4, 0.5, 0.5}); err == nil {
		t.Error("non-stochastic row should error")
	}
	if _, err := NewChain(2, []float64{-0.5, 1.5, 0.5, 0.5}); err == nil {
		t.Error("negative probability should error")
	}
	c, err := NewChain(2, []float64{0.9, 0.1, 0.2, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if c.Prob(0, 1) != 0.1 || c.Prob(1, 0) != 0.2 {
		t.Error("Prob lookup wrong")
	}
}

func TestUniformChainStep(t *testing.T) {
	c := UniformChain(4)
	b := []float64{1, 0, 0, 0}
	next := c.Step(b)
	for _, v := range next {
		if math.Abs(v-0.25) > 1e-12 {
			t.Fatalf("uniform step = %v", next)
		}
	}
}

func TestStepPreservesMass(t *testing.T) {
	f := func(seed int64) bool {
		c := LazyRandomWalk(6, func(i int) []int {
			return []int{(i + 1) % 6, (i + 5) % 6}
		}, 0.3)
		b := make([]float64, 6)
		b[int(math.Abs(float64(seed)))%6] = 1
		for k := 0; k < 5; k++ {
			b = c.Step(b)
		}
		var s float64
		for _, v := range b {
			if v < 0 {
				return false
			}
			s += v
		}
		return math.Abs(s-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLazyRandomWalkNoNeighbors(t *testing.T) {
	c := LazyRandomWalk(3, func(i int) []int { return nil }, 0.5)
	for i := 0; i < 3; i++ {
		if c.Prob(i, i) != 1 {
			t.Errorf("isolated state %d should self-loop", i)
		}
	}
}

func TestEstimateChain(t *testing.T) {
	// Deterministic cycle 0→1→2→0 observed repeatedly.
	traj := [][]int{{0, 1, 2, 0, 1, 2, 0, 1, 2, 0}}
	c, err := EstimateChain(3, traj, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Prob(0, 1) != 1 || c.Prob(1, 2) != 1 || c.Prob(2, 0) != 1 {
		t.Errorf("estimated chain rows: %v %v %v", c.p[0:3], c.p[3:6], c.p[6:9])
	}
}

func TestEstimateChainSmoothing(t *testing.T) {
	c, err := EstimateChain(3, [][]int{{0, 1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Row 0: counts (0,1,0)+1 smoothing = (1,2,1)/4.
	if math.Abs(c.Prob(0, 1)-0.5) > 1e-12 {
		t.Errorf("Prob(0,1) = %v, want 0.5", c.Prob(0, 1))
	}
	// Unseen state 2 gets uniform row.
	for j := 0; j < 3; j++ {
		if math.Abs(c.Prob(2, j)-1.0/3) > 1e-12 {
			t.Errorf("unseen row = %v", c.p[6:9])
		}
	}
}

func TestEstimateChainErrors(t *testing.T) {
	if _, err := EstimateChain(0, nil, 1); err == nil {
		t.Error("zero states should error")
	}
	if _, err := EstimateChain(2, nil, -1); err == nil {
		t.Error("negative smoothing should error")
	}
	if _, err := EstimateChain(2, [][]int{{0, 5}}, 1); err == nil {
		t.Error("out-of-range trajectory should error")
	}
	// No data, no smoothing: stay-put chain, still valid.
	c, err := EstimateChain(2, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Prob(0, 0) != 1 || c.Prob(1, 1) != 1 {
		t.Error("dataless chain should stay put")
	}
}
