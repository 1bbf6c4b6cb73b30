package panda_test

// Benchmark harness: one benchmark per paper artifact (E1–E11), plus
// micro-benchmarks of the release mechanisms and an ablation of PIM's
// isotropic transform. Experiment benches use the Quick configuration so
// `go test -bench=.` stays laptop-friendly; cmd/panda-bench runs the
// paper-scale versions.

import (
	"testing"

	"github.com/pglp/panda/internal/adversary"
	"github.com/pglp/panda/internal/dp"
	"github.com/pglp/panda/internal/experiments"
	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/mechanism"
	"github.com/pglp/panda/internal/policygraph"
	"github.com/pglp/panda/internal/server"
	"github.com/pglp/panda/internal/server/storage"
)

func benchConfig() experiments.Config { return experiments.Quick() }

func runExperiment(b *testing.B, run func(experiments.Config) (*experiments.Table, error)) {
	b.Helper()
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) == 0 {
			b.Fatal("empty experiment table")
		}
	}
}

// BenchmarkE1LocationMonitoringUtility regenerates the utility sweep of
// §3.2 evaluation 1 (policy × mechanism × ε → mean Euclidean error).
func BenchmarkE1LocationMonitoringUtility(b *testing.B) {
	runExperiment(b, experiments.RunE1)
}

// BenchmarkE2R0Estimation regenerates the transmission-model accuracy
// evaluation (R0 from true vs perturbed locations).
func BenchmarkE2R0Estimation(b *testing.B) {
	runExperiment(b, experiments.RunE2)
}

// BenchmarkE3ContactTracing regenerates the contact-tracing procedure
// (dynamic policy updates vs static baseline).
func BenchmarkE3ContactTracing(b *testing.B) {
	runExperiment(b, experiments.RunE3)
}

// BenchmarkE4AdversaryError regenerates the empirical privacy evaluation
// (Bayesian adversary expected error and the privacy-utility frontier).
func BenchmarkE4AdversaryError(b *testing.B) {
	runExperiment(b, experiments.RunE4)
}

// BenchmarkE5RandomPolicyGraphs regenerates the Fig. 5 Size/Density sweep.
func BenchmarkE5RandomPolicyGraphs(b *testing.B) {
	runExperiment(b, experiments.RunE5)
}

// BenchmarkE6TheoremValidation regenerates the Theorem 2.1/2.2 validation.
func BenchmarkE6TheoremValidation(b *testing.B) {
	runExperiment(b, experiments.RunE6)
}

// BenchmarkE7ServerPipeline regenerates the end-to-end system pipeline
// measurement (HTTP ingest, density queries, health codes).
func BenchmarkE7ServerPipeline(b *testing.B) {
	runExperiment(b, experiments.RunE7)
}

// BenchmarkE8GraphCompositionAblation regenerates the Lemma 2.1 budget-
// utilisation ablation.
func BenchmarkE8GraphCompositionAblation(b *testing.B) {
	runExperiment(b, experiments.RunE8)
}

// BenchmarkE9TemporalCorrelations regenerates the tracking-adversary /
// dynamic δ-location-set experiment.
func BenchmarkE9TemporalCorrelations(b *testing.B) {
	cfg := benchConfig()
	cfg.Users, cfg.Steps = 15, 16
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table, err := experiments.RunE9(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) == 0 {
			b.Fatal("empty experiment table")
		}
	}
}

// BenchmarkE10DatasetSensitivity regenerates the GeoLife-vs-Gowalla sweep.
func BenchmarkE10DatasetSensitivity(b *testing.B) {
	runExperiment(b, experiments.RunE10)
}

// BenchmarkE11RoadNetworks regenerates the Geo-Graph-Indistinguishability
// road-network comparison.
func BenchmarkE11RoadNetworks(b *testing.B) {
	runExperiment(b, experiments.RunE11)
}

// --- mechanism micro-benchmarks -------------------------------------------

func benchMechanism(b *testing.B, kind mechanism.Kind) {
	grid := geo.MustGrid(16, 16, 1)
	g := policygraph.GridEightNeighbor(grid)
	m, err := mechanism.New(kind, grid, g, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := dp.NewRand(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Release(rng, i%grid.NumCells()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReleaseGEM(b *testing.B)    { benchMechanism(b, mechanism.KindGEM) }
func BenchmarkReleaseGLM(b *testing.B)    { benchMechanism(b, mechanism.KindGLM) }
func BenchmarkReleasePIM(b *testing.B)    { benchMechanism(b, mechanism.KindPIM) }
func BenchmarkReleaseKNorm(b *testing.B)  { benchMechanism(b, mechanism.KindKNorm) }
func BenchmarkReleaseGeoInd(b *testing.B) { benchMechanism(b, mechanism.KindGeoInd) }

// BenchmarkMechanismConstruction measures mechanism build cost (distance
// tables, sensitivity hulls) — the cost of a dynamic policy update — on
// a 16x16 G1, and GLM's on a 32x32 G1 too.
func BenchmarkMechanismConstruction(b *testing.B) {
	for _, c := range []struct {
		name string
		kind mechanism.Kind
		side int
	}{
		{"gem", mechanism.KindGEM, 16},
		{"glm", mechanism.KindGLM, 16},
		{"pim", mechanism.KindPIM, 16},
		{"glm-32x32", mechanism.KindGLM, 32},
	} {
		grid := geo.MustGrid(c.side, c.side, 1)
		g := policygraph.GridEightNeighbor(grid)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mechanism.New(c.kind, grid, g, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPIMIsotropicAblation compares PIM with and without the
// isotropic transform on an elongated policy.
// Reported metric is mean Euclidean error, not time. Expected result:
// the two variants report IDENTICAL error — the K-norm mechanism is
// invariant under the transform (‖T(x)‖_{T·K} = ‖x‖_K); the transform is
// a sampling aid, not a utility knob.
func BenchmarkPIMIsotropicAblation(b *testing.B) {
	grid := geo.MustGrid(2, 24, 1)
	g := policygraph.New(48)
	for c := 0; c+8 < 24; c++ {
		g.AddEdge(c, c+8)
		g.AddEdge(24+c, 24+c+8)
	}
	g.AddEdge(0, 24)
	for _, iso := range []bool{true, false} {
		name := "isotropic"
		if !iso {
			name = "knorm"
		}
		b.Run(name, func(b *testing.B) {
			m, err := mechanism.NewPIM(grid, g, 1, iso)
			if err != nil {
				b.Fatal(err)
			}
			rng := dp.NewRand(3)
			var sum float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				z, err := m.Release(rng, 0)
				if err != nil {
					b.Fatal(err)
				}
				sum += geo.Dist(z, grid.Center(0))
			}
			b.ReportMetric(sum/float64(b.N), "meanerr")
		})
	}
}

// BenchmarkPolicyGraphDistance measures BFS distance queries on G1.
func BenchmarkPolicyGraphDistance(b *testing.B) {
	grid := geo.MustGrid(32, 32, 1)
	g := policygraph.GridEightNeighbor(grid)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.Distance(i%1024, (i*37)%1024)
	}
}

// BenchmarkAdversaryPosterior measures one Bayesian posterior update.
func BenchmarkAdversaryPosterior(b *testing.B) {
	grid := geo.MustGrid(16, 16, 1)
	g := policygraph.GridEightNeighbor(grid)
	m, err := mechanism.NewGraphExponential(grid, g, 1)
	if err != nil {
		b.Fatal(err)
	}
	adv, err := adversary.NewBayesian(grid, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := dp.NewRand(7)
	z, err := m.Release(rng, 100)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := adv.Posterior(m, z); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerIngest measures raw database insert throughput.
func BenchmarkServerIngest(b *testing.B) {
	grid := geo.MustGrid(16, 16, 1)
	db, err := server.NewDBOn(grid, storage.NewShardedStore(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec := server.Record{User: i % 1000, T: i / 1000, Cell: i % 256}
		if _, _, err := db.InsertBatch([]server.Record{rec}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReleaserPipeline measures the client-side release path of
// one step: release through the mechanism, then snap to a cell.
func BenchmarkReleaserPipeline(b *testing.B) {
	grid := geo.MustGrid(16, 16, 1)
	m, err := mechanism.New(mechanism.KindGEM, grid, policygraph.GridEightNeighbor(grid), 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := dp.NewRand(5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := m.Release(rng, i%256)
		if err != nil {
			b.Fatal(err)
		}
		if !grid.InRange(grid.Snap(p)) {
			b.Fatal("release snapped off the grid")
		}
	}
}
