package tuned

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro"
	"repro/internal/autotune"
	"repro/internal/shapes"
)

// spellingNet has a 3×3 unit-stride layer (where Winograd, FFT and
// implicit GEMM all apply) and a 1×1 layer (where FFT does not).
func spellingNet() []autotune.NetworkLayer {
	return []autotune.NetworkLayer{
		{Name: "c3", Repeat: 1, Shape: shapes.ConvShape{
			Batch: 1, Cin: 16, Cout: 16, Hin: 14, Win: 14, Hker: 3, Wker: 3, Strid: 1, Pad: 1}},
		{Name: "pw", Repeat: 2, Shape: shapes.ConvShape{
			Batch: 1, Cin: 16, Cout: 32, Hin: 14, Win: 14, Hker: 1, Wker: 1, Strid: 1}},
	}
}

// withOptions describes spellingNet with the given wire options, parsed
// the way handleTune parses a body.
func withOptions(t *testing.T, o *repro.RequestOptions) repro.NetworkDescription {
	t.Helper()
	d := repro.DescribeNetwork(testArch.Name, spellingNet())
	d.Options = o
	body, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	d, err = repro.ParseNetworkDescription(body)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// sameRequest compares two resolved requests, ignoring the counter hooks
// New installs (funcs never compare equal).
func sameRequest(a, b tuneRequest) bool {
	for _, r := range []*tuneRequest{&a, &b} {
		r.opts.OnMeasure, r.opts.OnRetry, r.opts.OnQuarantine = nil, nil, nil
	}
	return reflect.DeepEqual(a, b)
}

// tuneRequest is the one request value behind every decode site:
//   - every spelling of one candidate set is one request — the legacy
//     winograd flag and the kinds list, any order, duplicates, an explicit
//     "direct" — with one key and merge group, and a POST of each spelling
//     answers exactly what TuneNetwork answers for its old flag form;
//   - describe, the wire form of the forwarded envelope and the refinement
//     backlog, resolves back to the request it came from under any server
//     defaults;
//   - a backlog written before the flag folded into kinds still restores.
func TestTuneRequest(t *testing.T) {
	t.Run("spellings", testTuneRequestSpellings)
	t.Run("describe round trip", testTuneRequestDescribeRoundTrip)
	t.Run("legacy refine backlog", testRefineBacklogWithWinogradFlag)
}

func testTuneRequestSpellings(t *testing.T) {
	yes, no := true, false
	opts := tinyOpts(8, 3)
	cfg := Config{Tune: opts, Warm: true}
	srv, _ := newTestServer(t, cfg)
	type spelling struct {
		wire     *repro.RequestOptions
		winograd bool            // the old flag form...
		kinds    []autotune.Kind // ...of the same spelling
	}
	cases := []struct {
		name string
		a, b spelling
	}{
		{"winograd flag vs kind",
			spelling{&repro.RequestOptions{Winograd: &yes}, true, nil},
			spelling{&repro.RequestOptions{Kinds: []string{"winograd"}}, false, []autotune.Kind{autotune.Winograd}}},
		{"order and duplicates",
			spelling{&repro.RequestOptions{Kinds: []string{"igemm", "fft", "fft"}}, false,
				[]autotune.Kind{autotune.ImplicitGEMM, autotune.FFT, autotune.FFT}},
			spelling{&repro.RequestOptions{Kinds: []string{"fft", "igemm"}, Winograd: &no}, false,
				[]autotune.Kind{autotune.FFT, autotune.ImplicitGEMM}}},
		{"explicit direct vs none",
			spelling{&repro.RequestOptions{Kinds: []string{"direct"}}, false, []autotune.Kind{autotune.Direct}},
			spelling{nil, false, nil}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ra, err := srv.newTuneRequest(withOptions(t, c.a.wire))
			if err != nil {
				t.Fatal(err)
			}
			rb, err := srv.newTuneRequest(withOptions(t, c.b.wire))
			if err != nil {
				t.Fatal(err)
			}
			if ra.key() != rb.key() {
				t.Errorf("keys differ: %q vs %q", ra.key(), rb.key())
			}
			if ra.group() != rb.group() {
				t.Errorf("groups differ: %+v vs %+v", ra.group(), rb.group())
			}
			for _, sp := range []spelling{c.a, c.b} {
				want, _ := countMeasurements(t, spellingNet(), autotune.NetworkOptions{
					Tune: opts, Warm: true, Winograd: sp.winograd, Kinds: sp.kinds})
				_, ts := newTestServer(t, cfg)
				resp, code := postTune(t, ts.URL, withOptions(t, sp.wire))
				if code != http.StatusOK {
					t.Fatalf("status %d", code)
				}
				if got := repro.DescribeVerdicts(want); !reflect.DeepEqual(resp.Verdicts, got) {
					t.Errorf("options %+v: server %+v != TuneNetwork %+v", sp.wire, resp.Verdicts, got)
				}
			}
		})
	}
}

func testTuneRequestDescribeRoundTrip(t *testing.T) {
	yes, no := true, false
	wires := []*repro.RequestOptions{
		nil,
		{Winograd: &yes},
		{Winograd: &no},
		{Kinds: []string{"direct"}},
		{Kinds: []string{"igemm", "winograd"}, Budget: 12, Seed: 5},
	}
	for _, winograd := range []bool{false, true} {
		for _, kinds := range [][]autotune.Kind{nil, {autotune.FFT}} {
			srv, _ := newTestServer(t, Config{Tune: tinyOpts(8, 1), Winograd: winograd, Kinds: kinds})
			for _, w := range wires {
				req, err := srv.newTuneRequest(withOptions(t, w))
				if err != nil {
					t.Fatal(err)
				}
				again, err := srv.newTuneRequest(req.describe())
				if err != nil {
					t.Fatal(err)
				}
				if !sameRequest(req, again) {
					t.Errorf("defaults winograd=%v kinds=%v, options %+v: describe round trip %+v != %+v",
						winograd, kinds, w, again, req)
				}
			}
		}
	}
}

// The old backlog carries "winograd": true; the restored job must tune
// Winograd even though the restoring server's default has it off.
func testRefineBacklogWithWinogradFlag(t *testing.T) {
	state := filepath.Join(t.TempDir(), "tuned.cache")
	const backlog = `{"version":1,"jobs":[{"arch":"V100","layers":[` +
		`{"name":"c3","batch":1,"cin":16,"hin":14,"win":14,"cout":16,"hker":3,"wker":3,"stride":1,"pad":1,"repeat":1},` +
		`{"name":"pw","batch":1,"cin":16,"hin":14,"win":14,"cout":32,"hker":1,"wker":1,"stride":1,"repeat":2}],` +
		`"options":{"budget":8,"seed":3,"winograd":true}}]}`
	if err := os.WriteFile(state+".refine", []byte(backlog), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, _ := newTestServer(t, Config{Tune: tinyOpts(8, 3), StatePath: state, AnalyticOverflow: true})
	waitUntil(t, "restored refinement job measured", func() bool {
		return srv.refineDone.Load() > 0
	})
	if _, ok := srv.cache.Entry(testArch.Name, autotune.Winograd, spellingNet()[0].Shape); !ok {
		t.Error("restored job did not tune Winograd for the 3×3 layer")
	}
}

// One lookup books one count: a network with three distinct (kind, shape)
// keys books three misses cold and three hits replayed on /healthz —
// neither the admission check nor the sweep's in-flight re-check counts.
func TestHealthzCacheCountsOncePerKey(t *testing.T) {
	_, ts := newTestServer(t, Config{Tune: tinyOpts(8, 1), Winograd: true})
	desc := repro.DescribeNetwork(testArch.Name, spellingNet())
	for _, want := range []autotune.CacheStats{{Misses: 3}, {Hits: 3, Misses: 3}} {
		if _, code := postTune(t, ts.URL, desc); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if got := getHealth(t, ts.URL).Cache; got.Hits != want.Hits || got.Misses != want.Misses {
			t.Errorf("cache hits/misses %d/%d, want %d/%d", got.Hits, got.Misses, want.Hits, want.Misses)
		}
	}
}
