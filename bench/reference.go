package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"time"
)

// The machines this benchmark runs on share their cores with other
// tenants, and their speed drifts by up to a factor of two from one
// minute to the next. Every time the benchmark measures would drift with
// it. So the benchmark samples the machine's speed at every boundary of
// a measured segment, with a fixed reference workload run in a child
// process: batches of releases POSTed as JSON over loopback HTTP to a
// handler that decodes, validates and stores them in a map. It is the
// HTTP and JSON stack the server runs on, with none of the program's
// code, so the program under test cannot change it.
//
// A sample gives two speeds, each the reference's rate over its rate on
// the machine the benchmark was calibrated on: requests per second of
// wall-clock time, which falls when other tenants take the cores, and
// requests per second of the child's CPU time, which falls only when
// the cores themselves run slower. Wall-clock times and rates are scaled
// by the first, CPU times by the second.
//
// The child is this same binary, started with referenceEnv set. It
// serves one sample per line read from standard input and exits when
// standard input closes.

// referenceEnv, when set, makes the process serve speed samples instead
// of running the benchmark.
const referenceEnv = "PANDA_BENCH_REFERENCE"

const (
	// refRequests is the reference work in one speed sample: about a
	// twentieth of a second at nominal speed.
	refRequests = 600
	// refBatch is the releases per reference request, as in the
	// workloads' reports.
	refBatch = 25
	// nominalWallRate and nominalCPURate are the reference's requests per
	// second of wall-clock and of CPU time at speed 1: their medians on the
	// calibration machine (see README.md).
	nominalWallRate = 11000.0
	nominalCPURate  = 6400.0
)

// speed is the machine's speed relative to the calibration machine, on
// the wall clock and in CPU time.
type speed struct{ wall, cpu float64 }

// between is the speed across an interval that starts at speed s and
// ends at speed t: their geometric mean.
func (s speed) between(t speed) speed {
	return speed{math.Sqrt(s.wall * t.wall), math.Sqrt(s.cpu * t.cpu)}
}

// speedometer is the parent's end of the reference process.
type speedometer struct {
	cmd      *exec.Cmd
	in       io.WriteCloser
	out      *bufio.Scanner
	requests int // reference requests per sample
}

// startSpeedometer starts the reference process and discards its first
// sample, which pays for connection set-up and first-touch page faults.
// Each sample sends requests reference requests.
func startSpeedometer(stderr io.Writer, requests int) (*speedometer, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), referenceEnv+"=1")
	cmd.Stderr = stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &speedometer{cmd: cmd, in: in, out: bufio.NewScanner(out), requests: requests}
	if _, err := s.sample(); err != nil {
		return nil, errors.Join(err, s.close())
	}
	return s, nil
}

// sample runs one reference round and returns the machine's speed.
func (s *speedometer) sample() (speed, error) {
	if _, err := fmt.Fprintln(s.in, s.requests); err != nil {
		return speed{}, fmt.Errorf("reference process: %w", err)
	}
	if !s.out.Scan() {
		return speed{}, errors.Join(errors.New("reference process ended"), s.out.Err())
	}
	var wall, cpu float64
	if n, err := fmt.Sscan(s.out.Text(), &wall, &cpu); n != 2 || err != nil || wall <= 0 || cpu <= 0 {
		return speed{}, fmt.Errorf("reference process: bad sample %q", s.out.Text())
	}
	return speed{wall / nominalWallRate, cpu / nominalCPURate}, nil
}

// close ends the reference process and waits for it, killing it if it
// does not exit on its own.
func (s *speedometer) close() error {
	err := s.in.Close()
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case werr := <-done:
		return errors.Join(err, werr)
	case <-time.After(10 * time.Second):
		kerr := s.cmd.Process.Kill()
		return errors.Join(err, errors.New("reference process did not exit"), kerr, <-done)
	}
}

// referenceMain is the reference process: it serves the reference
// handler on a loopback port and, for every line on in, drives one round
// of as many requests as the line says through it and writes the
// round's requests per second of wall-clock time and of CPU time to out.
func referenceMain(in io.Reader, out io.Writer, stderr io.Writer) int {
	if err := serveReference(in, out); err != nil {
		fmt.Fprintln(stderr, "bench reference:", err)
		return 1
	}
	return 0
}

func serveReference(in io.Reader, out io.Writer) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	st := &refStore{}
	hs := &http.Server{Handler: st}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	n := workers()
	tr := &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true}
	client := &http.Client{Transport: tr, Timeout: time.Minute}
	url := "http://" + ln.Addr().String() + "/v2/reports"

	sc := bufio.NewScanner(in)
	for sc.Scan() && err == nil {
		var requests int
		if requests, err = strconv.Atoi(sc.Text()); err != nil || requests < 1 {
			err = fmt.Errorf("bad request count %q", sc.Text())
			break
		}
		var wall, cpu float64
		if wall, cpu, err = refRound(client, url, st, requests); err == nil {
			_, err = fmt.Fprintf(out, "%g %g\n", wall, cpu)
		}
	}
	tr.CloseIdleConnections()
	if cerr := hs.Close(); cerr != nil {
		err = errors.Join(err, cerr)
	}
	if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, sc.Err())
}

// refRound sends requests reports over the load generator's workers
// into an emptied store and returns the requests per second of
// wall-clock time and of the process's CPU time.
func refRound(client *http.Client, url string, st *refStore, requests int) (wall, cpu float64, err error) {
	st.reset()
	var (
		wg   sync.WaitGroup
		once sync.Once
		ferr error
	)
	n := workers()
	start, c0 := time.Now(), cpuTime()
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 0x2ef))
			for i := w; i < requests; i += n {
				if err := refPost(client, url, rng, i); err != nil {
					once.Do(func() { ferr = err })
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed, used := time.Since(start), cpuTime()-c0
	if ferr != nil {
		return 0, 0, ferr
	}
	if got := st.len(); got != requests*refBatch {
		return 0, 0, fmt.Errorf("reference store holds %d releases, want %d", got, requests*refBatch)
	}
	return float64(requests) / elapsed.Seconds(), float64(requests) / used.Seconds(), nil
}

type refRelease struct {
	T int     `json:"t"`
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

type refReport struct {
	User     int          `json:"user"`
	Version  int          `json:"policy_version"`
	Releases []refRelease `json:"releases"`
}

// refPost sends request i: one user's next refBatch releases.
func refPost(client *http.Client, url string, rng *rand.Rand, i int) error {
	rep := refReport{User: i % 250, Version: 1, Releases: make([]refRelease, refBatch)}
	for k := range rep.Releases {
		rep.Releases[k] = refRelease{T: i/250*refBatch + k, X: 32 * rng.Float64(), Y: 32 * rng.Float64()}
	}
	body, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var ack struct {
		Accepted int `json:"accepted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || ack.Accepted != refBatch {
		return fmt.Errorf("reference request %d: status %d, %d accepted", i, resp.StatusCode, ack.Accepted)
	}
	return nil
}

// refStore is the reference handler and its store.
type refStore struct {
	mu   sync.Mutex
	recs map[[2]int]refRelease
}

func (s *refStore) reset() {
	s.mu.Lock()
	s.recs = make(map[[2]int]refRelease)
	s.mu.Unlock()
}

func (s *refStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

func (s *refStore) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var rep refReport
	if err := json.NewDecoder(r.Body).Decode(&rep); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	for _, rel := range rep.Releases {
		if rel.T < 0 || rel.X < 0 || rel.X >= 32 || rel.Y < 0 || rel.Y >= 32 {
			http.Error(w, "release out of range", http.StatusBadRequest)
			return
		}
	}
	s.mu.Lock()
	for _, rel := range rep.Releases {
		s.recs[[2]int{rep.User, rel.T}] = rel
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Accepted int `json:"accepted"`
	}{len(rep.Releases)})
}
