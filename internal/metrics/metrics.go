package metrics

// Classification summarises a binary detection outcome.
type Classification struct {
	TruePositives  int
	FalsePositives int
	FalseNegatives int
}

// Classify compares a flagged set against ground truth.
func Classify(flagged, truth []int) Classification {
	ft := make(map[int]bool, len(truth))
	for _, u := range truth {
		ft[u] = true
	}
	var c Classification
	seen := make(map[int]bool, len(flagged))
	for _, u := range flagged {
		if seen[u] {
			continue
		}
		seen[u] = true
		if ft[u] {
			c.TruePositives++
		} else {
			c.FalsePositives++
		}
	}
	for _, u := range truth {
		if !seen[u] {
			c.FalseNegatives++
		}
	}
	return c
}

// Precision returns TP/(TP+FP), or 1 when nothing was flagged.
func (c Classification) Precision() float64 {
	den := c.TruePositives + c.FalsePositives
	if den == 0 {
		return 1
	}
	return float64(c.TruePositives) / float64(den)
}

// Recall returns TP/(TP+FN), or 1 when there was nothing to find.
func (c Classification) Recall() float64 {
	den := c.TruePositives + c.FalseNegatives
	if den == 0 {
		return 1
	}
	return float64(c.TruePositives) / float64(den)
}

// F1 returns the harmonic mean of precision and recall.
func (c Classification) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}
