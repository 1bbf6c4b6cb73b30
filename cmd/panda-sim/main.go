// Command panda-sim runs the end-to-end surveillance scenario of the
// paper's demonstration (§3.2): a synthetic population moves on a grid, an
// outbreak spreads by co-location, every user releases PGLP-perturbed
// locations into the surveillance system, and the three apps run on the
// released data — location monitoring, epidemic analysis (R0) and dynamic
// contact tracing.
//
// Usage:
//
//	panda-sim -users 100 -steps 96 -eps 1.0 -mechanism gem
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/pglp/panda"
)

func main() {
	var (
		users = flag.Int("users", 100, "population size")
		steps = flag.Int("steps", 96, "timesteps")
		rows  = flag.Int("rows", 16, "grid rows")
		cols  = flag.Int("cols", 16, "grid columns")
		eps   = flag.Float64("eps", 1.0, "per-release epsilon")
		mech  = flag.String("mechanism", "gem", "mechanism: gem|glm|pim|knorm|geoind")
		seed  = flag.Uint64("seed", 42, "simulation seed")
		tprob = flag.Float64("tprob", 0.4, "per-contact transmission probability")
	)
	flag.Parse()

	if err := run(*users, *steps, *rows, *cols, *eps, panda.MechanismKind(*mech), *seed, *tprob); err != nil {
		fmt.Fprintf(os.Stderr, "panda-sim: %v\n", err)
		os.Exit(1)
	}
}

func run(users, steps, rows, cols int, eps float64, kind panda.MechanismKind, seed uint64, tprob float64) error {
	opts := panda.Options{Rows: rows, Cols: cols, CellSize: 1, Epsilon: eps}
	fmt.Printf("PANDA end-to-end simulation: %d users × %d steps on %dx%d, ε=%v, mechanism=%s\n\n",
		users, steps, rows, cols, eps, kind)

	// Ground truth world.
	world, err := panda.GenerateTraces(opts, users, steps, seed)
	if err != nil {
		return err
	}
	outbreak, err := world.SimulateOutbreak([]int{0, 1, 2}, tprob, 2, 8, seed^0x0b)
	if err != nil {
		return err
	}
	fmt.Printf("Outbreak: %d/%d users infected, empirical R0 %.2f\n",
		outbreak.TotalInfected, users, outbreak.EmpiricalR0)

	// Surveillance: everyone reports perturbed locations.
	sys, err := panda.NewSystem(opts)
	if err != nil {
		return err
	}
	handles := make([]*panda.User, users)
	for u := 0; u < users; u++ {
		h, err := sys.NewUser(u, kind, seed^uint64(u))
		if err != nil {
			return err
		}
		handles[u] = h
	}
	for t := 0; t < steps; t++ {
		for u := 0; u < users; u++ {
			if _, err := handles[u].Report(t, world.Cells(u)[t]); err != nil {
				return err
			}
		}
	}
	fmt.Printf("Server ingested %d releases\n\n", users*steps)

	// App 1: location monitoring.
	fmt.Println("Location monitoring (density per 4x4 region at final step):")
	density := sys.DensityAt(steps-1, 4, 4)
	for i, c := range density {
		if i > 0 && i%((cols+3)/4) == 0 {
			fmt.Println()
		}
		fmt.Printf("%4d", c)
	}
	fmt.Println()

	// App 2: epidemic analysis.
	r0True, err := world.EstimateR0(tprob, 8)
	if err != nil {
		return err
	}
	base, err := panda.BaselinePolicy(opts)
	if err != nil {
		return err
	}
	perturbed, err := world.Perturb(base, eps, kind, seed^0xaa)
	if err != nil {
		return err
	}
	r0Pert, err := perturbed.EstimateR0(tprob, 8)
	if err != nil {
		return err
	}
	fmt.Printf("\nEpidemic analysis: R0 from true data %.2f, from perturbed data %.2f (|Δ| %.2f)\n",
		r0True, r0Pert, abs(r0True-r0Pert))

	// App 3: contact tracing with dynamic policy updates. Flagged users
	// that test positive become patients for the next round (the demo's
	// full narrative: "find all contacts of the confirmed patient").
	patients := []int{0}
	res, err := world.TraceContacts(base, patients, eps, kind, 2, steps/3, seed^0xcc)
	if err != nil {
		return err
	}
	fmt.Printf("\nContact tracing (patient 0, window %d):\n", steps/3)
	fmt.Printf("  infected places: %d, flagged users: %v\n", len(res.InfectedCells), res.Flagged)
	fmt.Printf("  ground-truth contacts: %v\n", res.Truth)
	fmt.Printf("  precision %.2f  recall %.2f  F1 %.2f\n", res.Precision, res.Recall, res.F1)
	// Second round with confirmed positives as additional patients.
	var confirmed []int
	infectedSet := map[int]bool{}
	for _, u := range outbreak.InfectedUsers {
		infectedSet[u] = true
	}
	for _, u := range res.Flagged {
		if infectedSet[u] {
			confirmed = append(confirmed, u)
		}
	}
	if len(confirmed) > 0 {
		round2, err := world.TraceContacts(base, append(patients, confirmed...), eps, kind, 2, steps/3, seed^0xcd)
		if err != nil {
			return err
		}
		fmt.Printf("  round 2 with %d confirmed positives: %d flagged (F1 %.2f)\n",
			len(confirmed), len(round2.Flagged), round2.F1)
	}

	// Health codes after marking the patient's places infected.
	sys.MarkInfected(res.InfectedCells)
	counts := sys.HealthCodeCensus(steps/3, steps-1)
	fmt.Printf("\nHealth codes: green=%d yellow=%d red=%d\n",
		counts[panda.CodeGreen], counts[panda.CodeYellow], counts[panda.CodeRed])
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
