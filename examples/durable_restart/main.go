// Durable restart walkthrough: the crash-recovery story of
// PERSISTENCE.md, executed for real. The program re-runs itself as a
// child process that opens a striped, fsync-per-write WAL store,
// reports a fleet's perturbed locations through the panda facade, and
// then blocks; the parent SIGKILLs it mid-life — no drain, no Close,
// the hardest stop short of pulling the plug — reopens the same data
// directory, and verifies that every record the child acknowledged
// before dying is still there, stripe by stripe.
//
// Run it:
//
//	go run ./examples/durable_restart
package main

import (
	"bufio"
	"context"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"github.com/pglp/panda"
)

const (
	users  = 12
	steps  = 40
	shards = 4 // store shards == WAL stripes, pinned by the dir's MANIFEST
)

func sysOpts(dir string) panda.Options {
	return panda.Options{
		Rows: 16, Cols: 16, CellSize: 1, Epsilon: 1,
		StoreShards: shards,
		DataDir:     dir,
		// fsync per write: what the child acknowledged must survive
		// even a power cut, so it certainly survives the SIGKILL below.
		FsyncEveryWrite: true,
	}
}

// populate is the child process: report everything, announce the count
// on stdout, then block until the parent kills us dead.
func populate(dir string) {
	sys, err := panda.NewSystem(sysOpts(dir))
	if err != nil {
		log.Fatalf("child: %v", err)
	}
	total := 0
	for id := 1; id <= users; id++ {
		u, err := sys.NewUser(id, panda.GEM, uint64(id))
		if err != nil {
			log.Fatalf("child: user %d: %v", id, err)
		}
		cells := make([]int, steps)
		for t := range cells {
			cells[t] = (id*31 + t*7) % 256
		}
		if _, err := u.ReportBatch(0, cells); err != nil {
			log.Fatalf("child: reporting user %d: %v", id, err)
		}
		total += steps
	}
	// ReportBatch has returned for every batch: with FsyncEveryWrite,
	// each one was fsynced before its return. Tell the parent and wait
	// for the axe. Deliberately no sys.Close() anywhere on this path.
	fmt.Printf("populated %d\n", total)
	os.Stdout.Sync()
	select {}
}

func main() {
	if len(os.Args) == 3 && os.Args[1] == "-populate" {
		populate(os.Args[2])
		return
	}

	dir, err := os.MkdirTemp("", "panda-durable-restart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	fmt.Printf("data dir: %s (%d stripes, fsync per write)\n\n", dir, shards)

	// Phase 1: a child process populates the store...
	child := exec.Command(os.Args[0], "-populate", dir)
	child.Stderr = os.Stderr
	stdout, err := child.StdoutPipe()
	if err != nil {
		log.Fatal(err)
	}
	if err := child.Start(); err != nil {
		log.Fatal(err)
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		log.Fatalf("reading child announcement: %v", err)
	}
	var reported int
	if _, err := fmt.Sscanf(strings.TrimSpace(line), "populated %d", &reported); err != nil {
		log.Fatalf("unexpected child output %q: %v", line, err)
	}
	fmt.Printf("child (pid %d) reported %d records through the fsync WAL\n", child.Process.Pid, reported)

	// ...and dies without any shutdown: SIGKILL is not catchable, so
	// no flush, drain or Close runs. Whatever is on disk is exactly
	// what the WAL promised at each ReportBatch return.
	if err := child.Process.Kill(); err != nil {
		log.Fatal(err)
	}
	_ = child.Wait()
	fmt.Printf("child SIGKILLed mid-life (no Close, no drain)\n\n")

	// Phase 2: reopen the same directory. Open replays every stripe's
	// segments; a torn tail (a record half-written at kill time) would
	// be truncated away — here every record was fully acknowledged, so
	// nothing may be missing.
	sys, err := panda.NewSystem(sysOpts(dir))
	if err != nil {
		log.Fatalf("reopening after kill: %v", err)
	}
	defer sys.Close(context.Background())

	recovered := 0
	for id := 1; id <= users; id++ {
		recs := sys.Records(id)
		if len(recs) != steps {
			log.Fatalf("user %d: recovered %d records, want %d", id, len(recs), steps)
		}
		for t, r := range recs {
			if r.T != t {
				log.Fatalf("user %d: record %d has T=%d", id, t, r.T)
			}
		}
		recovered += len(recs)
	}
	if recovered != reported {
		log.Fatalf("recovered %d records, child reported %d", recovered, reported)
	}
	fmt.Printf("reopened: all %d acknowledged records recovered across %d users\n", recovered, users)

	stripeDirs, err := filepath.Glob(filepath.Join(dir, "stripe-*"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("on disk: MANIFEST + %d stripe directories (see PERSISTENCE.md for the layout)\n", len(stripeDirs))
	fmt.Println("\ndurable restart: OK")
}
