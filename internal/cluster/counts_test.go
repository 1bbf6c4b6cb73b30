package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"

	"github.com/pglp/panda/internal/server"
	"github.com/pglp/panda/internal/server/wire"
)

// The count answers as method-less structs, which encoding/json decodes
// and encodes by reflection: the reference for the router's bodies.
type (
	plainDensity struct {
		T      int    `json:"t"`
		Counts []int  `json:"counts"`
		Gen    uint64 `json:"gen"`
	}
	plainSeries struct {
		T0     int     `json:"t0"`
		T1     int     `json:"t1"`
		Series [][]int `json:"series"`
		Epoch  uint64  `json:"epoch"`
	}
	plainExposure struct {
		T0       int    `json:"t0"`
		T1       int    `json:"t1"`
		Exposure []int  `json:"exposure"`
		Epoch    uint64 `json:"epoch"`
	}
)

// getBody returns the body of a 200 answer to a GET.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, error %v", url, resp.StatusCode, err)
	}
	return body
}

// checkMergedBody checks that the router's body for path is what
// json.Encoder writes for the nodes' answers, each decoded by
// encoding/json into a plain T and folded into the first with add.
func checkMergedBody[T any](t *testing.T, f *fleet, path string, add func(sum *T, v T)) {
	t.Helper()
	var sum T
	for i, node := range f.nodeURLs {
		var v T
		if err := json.Unmarshal(getBody(t, node+path), &v); err != nil {
			t.Fatalf("%s on node %d: %v", path, i, err)
		}
		if i == 0 {
			sum = v
		} else {
			add(&sum, v)
		}
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(sum); err != nil {
		t.Fatal(err)
	}
	if got := getBody(t, f.routerURL+path); !bytes.Equal(got, want.Bytes()) {
		t.Errorf("%s: the router's body differs from the reference encoding of the summed answers\n got %.120s\nwant %.120s",
			path, got, want.Bytes())
	}
}

// TestClusterAnalyticsBodiesUnchanged: the router's density, series and
// exposure bodies are exactly what json.Encoder writes for the sum of
// the nodes' answers in a plain struct, on an empty fleet and on a
// loaded one at 1x1 and 8x8 blocks.
func TestClusterAnalyticsBodiesUnchanged(t *testing.T) {
	f := startFleet(t, 2, false)
	add := func(dst, src []int) {
		for i := range src {
			dst[i] += src[i]
		}
	}
	checkAll := func() {
		t.Helper()
		for _, block := range []int{1, 8} {
			checkMergedBody(t, f, fmt.Sprintf("/v2/density?t=3&block_rows=%d&block_cols=%d", block, block),
				func(sum *plainDensity, v plainDensity) { add(sum.Counts, v.Counts); sum.Gen += v.Gen })
			checkMergedBody(t, f, fmt.Sprintf("/v2/density/series?t0=0&t1=7&block_rows=%d&block_cols=%d", block, block),
				func(sum *plainSeries, v plainSeries) {
					for i := range v.Series {
						add(sum.Series[i], v.Series[i])
					}
					sum.Epoch += v.Epoch
				})
		}
		checkMergedBody(t, f, "/v2/exposure?t0=0&t1=7",
			func(sum *plainExposure, v plainExposure) { add(sum.Exposure, v.Exposure); sum.Epoch += v.Epoch })
	}
	checkAll()
	client := server.NewClient(f.routerURL, nil)
	for u := 0; u < 13; u++ {
		releases := make([]wire.Release, 8)
		for i := range releases {
			releases[i] = wire.Release{T: i, X: float64((u*3 + i) % 16), Y: float64((u + 2*i) % 16)}
		}
		if _, err := client.ReportBatchContext(t.Context(), u, releases); err != nil {
			t.Fatalf("user %d: %v", u, err)
		}
	}
	if _, err := client.MarkInfectedContext(t.Context(), []int{0, 17, 34}); err != nil {
		t.Fatal(err)
	}
	checkAll()
}
