// Package metrics collects the accuracy measures PANDA's evaluation
// reports: the precision/recall of contact identification (§3.2
// evaluation 2).
package metrics
