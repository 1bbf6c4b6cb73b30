package metrics

import (
	"math"
	"testing"
)

func TestClassification(t *testing.T) {
	c := Classify([]int{1, 2, 3, 3}, []int{2, 3, 4})
	if c.TruePositives != 2 || c.FalsePositives != 1 || c.FalseNegatives != 1 {
		t.Fatalf("classification = %+v", c)
	}
	if math.Abs(c.Precision()-2.0/3) > 1e-12 {
		t.Errorf("precision = %v", c.Precision())
	}
	if math.Abs(c.Recall()-2.0/3) > 1e-12 {
		t.Errorf("recall = %v", c.Recall())
	}
	if math.Abs(c.F1()-2.0/3) > 1e-12 {
		t.Errorf("F1 = %v", c.F1())
	}
	// Edge conventions.
	empty := Classify(nil, nil)
	if empty.Precision() != 1 || empty.Recall() != 1 {
		t.Error("empty-vs-empty should be perfect")
	}
	miss := Classify(nil, []int{1})
	if miss.Recall() != 0 || miss.Precision() != 1 {
		t.Error("missed-everything conventions wrong")
	}
	if miss.F1() != 0 {
		t.Error("F1 with zero recall should be 0")
	}
}
