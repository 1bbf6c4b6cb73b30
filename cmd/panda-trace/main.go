// Command panda-trace generates synthetic mobility datasets in the CSV
// interchange format (user,t,row,col) — the stand-ins for the Geolife and
// Gowalla datasets the paper demonstrates on, which are external
// downloads.
//
// Usage:
//
//	panda-trace -kind geolife -users 100 -steps 96 -out traces.csv
//	panda-trace -kind gowalla -users 200 -steps 48 -out checkins.csv
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/trace"
)

func main() {
	var (
		kind  = flag.String("kind", "geolife", "generator: geolife|gowalla")
		users = flag.Int("users", 100, "number of users")
		steps = flag.Int("steps", 96, "timesteps per user")
		rows  = flag.Int("rows", 16, "grid rows")
		cols  = flag.Int("cols", 16, "grid columns")
		seed  = flag.Uint64("seed", 1, "generator seed")
		out   = flag.String("out", "", "output file (default stdout)")
	)
	flag.Parse()

	grid, err := geo.NewGrid(*rows, *cols, 1)
	if err != nil {
		fatal(err)
	}
	var ds *trace.Dataset
	switch *kind {
	case "geolife":
		cfg := trace.DefaultGeoLife()
		cfg.Users, cfg.Steps, cfg.Seed = *users, *steps, *seed
		ds, err = trace.GenerateGeoLife(grid, cfg)
	case "gowalla":
		cfg := trace.DefaultGowalla()
		cfg.Users, cfg.Steps, cfg.Seed = *users, *steps, *seed
		if cfg.Venues > grid.NumCells() {
			cfg.Venues = grid.NumCells()
		}
		ds, err = trace.GenerateGowalla(grid, cfg)
	default:
		fatal(fmt.Errorf("unknown kind %q (want geolife or gowalla)", *kind))
	}
	if err != nil {
		fatal(err)
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := trace.WriteCSV(w, ds); err != nil {
		fatal(err)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "panda-trace: wrote %d users × %d steps to %s\n", *users, *steps, *out)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "panda-trace: %v\n", err)
	os.Exit(1)
}
