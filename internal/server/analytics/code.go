package analytics

import "github.com/pglp/panda/internal/server/storage"

// Code is the certification level of the health-code service.
type Code string

// Codes, ordered by increasing risk.
const (
	CodeGreen  Code = "green"  // no recorded visit to an infected place
	CodeYellow Code = "yellow" // one recorded visit
	CodeRed    Code = "red"    // two or more recorded visits (the paper's contact rule)
)

// codeOf maps a count of visits to infected places onto a health code.
func codeOf(visits int) Code {
	switch {
	case visits >= 2:
		return CodeRed
	case visits == 1:
		return CodeYellow
	default:
		return CodeGreen
	}
}

// HealthCodeFor certifies a user from their released locations: visits
// to infected cells within the last `window` timesteps before `now`
// (records with T > now-window) are counted; window ≤ 0 counts all
// history. A negative `now` resolves to the store's latest timestep.
// The window is anchored at an explicit `now` rather than the user's
// own latest record, so a user who stopped reporting ages out of the
// window instead of keeping an eternally-fresh certificate. Because it
// runs on released data only, the certificate is privacy-preserving by
// post-processing. With a window it reads the user's records from the
// window's start on, not their whole history; CodeCensus computes the
// same codes for everyone from the window's timesteps.
func (e *Engine) HealthCodeFor(user int, infected []int, window, now int) Code {
	if now < 0 {
		now = e.store.MaxT()
	}
	var recs []storage.Record
	if window > 0 {
		// now ≥ -1 here, so now-window cannot overflow.
		recs = e.store.UserRecordsAfter(user, now-window, 0)
	} else {
		recs = e.store.UserRecords(user)
	}
	inf := cellSet(infected)
	visits := 0
	for _, r := range recs {
		// The window is (now-window, now]: records after the anchor are
		// just as out-of-window as records before it, so a historical
		// `now` never counts visits that hadn't happened yet.
		if window > 0 && r.T > now {
			break
		}
		if inf[r.Cell] {
			visits++
		}
	}
	return codeOf(visits)
}

// CodeCensus certifies every known user and tallies the health codes —
// the population-level view of the health-code service. The window is
// anchored at `now` (negative = the store's latest timestep) so every
// user is certified against the same clock, by HealthCodeFor's rule.
// The tally is cached against the store's global Epoch, because any
// write can add a user and so move the green count. A miss reads the
// window's stored timesteps (all history when window ≤ 0) with their
// Gens, takes each step's infected visitors from the exposure cache
// entry ExposureAt shares, and rescans only the steps written since
// their entry was made; a cold miss scans its window in at most
// censusSlices ScanRange calls. It then counts each user's visits to
// infected cells, and every user without one as green. It costs O(records in the rescanned steps +
// visits in the window + users) plus O(min(window width, stored
// timesteps)) index and cache lookups, so a sparse history whose T
// reaches math.MaxInt costs no more than a dense one.
func (e *Engine) CodeCensus(infected []int, window, now int) map[Code]int {
	if now < 0 {
		now = e.store.MaxT()
	}
	key := censusKey{window: window, now: now, infected: infectedKey(infected)}
	epoch := e.store.Epoch() // before the scan: see the coherence note
	e.mu.RLock()
	ent, ok := e.census[key]
	e.mu.RUnlock()
	if ok && ent.epoch == epoch {
		e.hits.Add(1)
		return copyCensus(ent.census)
	}
	e.misses.Add(1)
	// MaxT is read after the epoch, so a record past t1 was written
	// after it too and can only over-invalidate.
	t0, t1 := 0, e.store.MaxT() // window ≤ 0: all history, even past now
	if window > 0 {
		t0, t1 = max(now-window+1, 0), min(now, t1)
	}
	visits := make(map[int]int)
	if t0 <= t1 {
		// Every step's Gen is read before the scan it pins.
		steps := e.store.StepGens(t0, t1)
		for _, users := range e.exposed(steps, key.infected, infected) {
			for _, u := range users {
				visits[u]++
			}
		}
	}
	// Users are counted after the scan and never removed, so every user
	// counted above is in the count and green cannot go negative.
	out := map[Code]int{CodeGreen: e.store.NumUsers(), CodeYellow: 0, CodeRed: 0}
	for _, n := range visits {
		out[codeOf(n)]++
		out[CodeGreen]--
	}
	e.mu.Lock()
	if len(e.census) >= maxCensusEntries {
		e.census = make(map[censusKey]censusEntry)
	}
	e.census[key] = censusEntry{epoch: epoch, census: out}
	e.mu.Unlock()
	return copyCensus(out)
}

func copyCensus(m map[Code]int) map[Code]int {
	out := make(map[Code]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
