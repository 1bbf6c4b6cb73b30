// Package experiments contains the harnesses that regenerate every
// evaluation artifact of the paper (the tables/series behind §3.2 and
// Figs. 2, 4, 5). Each RunEx function produces a printable Table; the
// cmd/panda-bench binary and the root-level benchmarks drive them. Each
// RunEx doc comment says what the experiment measures and the shape its
// table is expected to show.
package experiments
