package autotune

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/conv"
	"repro/internal/shapes"
)

// randomLookupNetwork draws a small network mixing dense, grouped and
// depthwise layers, with repeated shapes (one of them spelled Groups: 1,
// which shares the dense key of Groups: 0) so the deduplication of both
// paths is exercised.
func randomLookupNetwork(rng *rand.Rand) []NetworkLayer {
	var layers []NetworkLayer
	add := func(s shapes.ConvShape) {
		layers = append(layers, NetworkLayer{Name: fmt.Sprintf("l%d", len(layers)), Shape: s, Repeat: 1 + rng.Intn(3)})
	}
	for i := 0; i < 5; i++ {
		switch i % 3 {
		case 0:
			add(randomSmallShape(rng))
		case 1:
			add(randomGroupedShape(rng))
		default:
			s := randomSmallShape(rng)
			s.Cout, s.Groups = s.Cin, s.Cin // depthwise
			add(s)
		}
	}
	add(layers[1].Shape)
	dense := layers[0].Shape
	dense.Groups = 1
	add(dense)
	return layers
}

// probe counts what a TuneNetwork call did: fresh measurements, and the
// WrapMeasurer calls the sweep makes once per deduplicated search (cache
// hits included) and the lookup pass never makes.
type probe struct {
	measured, wrapped atomic.Int64
}

func (p *probe) opts(o NetworkOptions) NetworkOptions {
	o.Tune.OnMeasure = func() { p.measured.Add(1) }
	o.WrapMeasurer = func(_ Kind, _ shapes.ConvShape, m Measurer) FallibleMeasurer {
		p.wrapped.Add(1)
		return LiftMeasurer(m)
	}
	return o
}

func (p *probe) reset() { p.measured.Store(0); p.wrapped.Store(0) }

// sameAsCold checks a replayed answer against the cold sweep that filled
// the cache: the same kind, config, measurement, partial flag and tier per
// layer, every one Shared.
func sameAsCold(t *testing.T, tag string, cold, got []LayerVerdict) {
	t.Helper()
	if len(got) != len(cold) {
		t.Fatalf("%s: %d verdicts, want %d", tag, len(got), len(cold))
	}
	for i := range cold {
		c, g := cold[i], got[i]
		if g.Kind != c.Kind || g.Config != c.Config || g.M != c.M || g.Partial != c.Partial || g.Tier != c.Tier {
			t.Errorf("%s: layer %s: got %v %+v %+v partial=%v tier=%v, cold sweep %v %+v %+v partial=%v tier=%v",
				tag, c.Layer.Name, g.Kind, g.Config, g.M, g.Partial, g.Tier, c.Kind, c.Config, c.M, c.Partial, c.Tier)
		}
		if !g.Shared {
			t.Errorf("%s: layer %s not Shared on a replay", tag, c.Layer.Name)
		}
	}
}

// entriesOf copies every entry of a cache, optionally stripped to its
// verdict.
func entriesOf(c *Cache, verdictOnly bool) []CacheEntry {
	var out []CacheEntry
	for _, e := range c.snapshot() {
		if verdictOnly {
			e.Rows, e.Curve, e.Budget = nil, nil, 0
		}
		out = append(out, e)
	}
	return out
}

// The lookup pass is the sweep's answer without the sweep: on randomized
// dense, grouped and depthwise networks, for every kind set and with
// Resume on and off, a fully cached network — state entries at a short
// budget, verdict-only entries from Put and from PutEntries — is answered
// with the cold sweep's verdicts, zero measurements and no search set up;
// with one key missing, or with Resume over an uncovered entry, the call
// takes the sweep path.
func TestLookupPassMatchesColdSweep(t *testing.T) {
	kindSets := []struct {
		name  string
		kinds []Kind
	}{{"direct", nil}, {"winograd", []Kind{Winograd}}, {"all", Kinds}}
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 3; trial++ {
		layers := randomLookupNetwork(rng)
		for _, ks := range kindSets {
			for _, resume := range []bool{false, true} {
				tag := fmt.Sprintf("trial %d/%s/resume=%v", trial, ks.name, resume)
				var p probe
				base := NetworkOptions{Tune: smallOpts(8, int64(trial+1)), Kinds: ks.kinds, Resume: resume, Workers: 2}
				cache := NewCache()
				cold, err := TuneNetwork(arch, layers, cache, p.opts(base))
				if err != nil {
					t.Fatalf("%s: cold sweep: %v", tag, err)
				}
				if p.measured.Load() == 0 || p.wrapped.Load() == 0 {
					t.Fatalf("%s: the cold sweep measured nothing", tag)
				}

				replay := func(c *Cache, o NetworkOptions) []LayerVerdict {
					t.Helper()
					p.reset()
					v, err := TuneNetwork(arch, layers, c, p.opts(o))
					if err != nil {
						t.Fatalf("%s: replay: %v", tag, err)
					}
					return v
				}
				lookup := func(what string, c *Cache, o NetworkOptions) {
					t.Helper()
					sameAsCold(t, tag+"/"+what, cold, replay(c, o))
					if m, w := p.measured.Load(), p.wrapped.Load(); m != 0 || w != 0 {
						t.Errorf("%s/%s: %d measurements, %d searches set up; want a pure lookup", tag, what, m, w)
					}
				}

				lookup("state entries", cache, base)
				put := NewCache()
				for _, e := range entriesOf(cache, true) {
					k, _ := kindFromString(e.Kind)
					put.Put(e.Arch, k, e.Shape.shape(), e.Config.config(), Measurement{Seconds: e.Seconds, GFLOPS: e.GFLOPS})
				}
				replicated := NewCache()
				if err := replicated.PutEntries(entriesOf(cache, true)); err != nil {
					t.Fatal(err)
				}
				// A higher budget leaves the state entries uncovered for a
				// resume, but verdict-only entries have nothing to resume.
				higher := base
				higher.Tune.Budget *= 2
				lookup("Put verdicts", put, higher)
				lookup("PutEntries verdicts", replicated, higher)

				if resume {
					replay(cache, higher)
					if p.wrapped.Load() == 0 || p.measured.Load() == 0 {
						t.Errorf("%s: resume over short-budget state entries did not take the sweep path", tag)
					}
				} else {
					lookup("state entries, higher budget", cache, higher)
				}

				missing := NewCache()
				all := entriesOf(put, false)
				if err := missing.PutEntries(all[1:]); err != nil {
					t.Fatal(err)
				}
				replay(missing, base)
				if p.wrapped.Load() == 0 || p.measured.Load() == 0 {
					t.Errorf("%s: a missing key did not take the sweep path", tag)
				}
			}
		}
	}
}

// layerKeys lists the distinct cache keys of a network, as the sweep
// deduplicates them.
func layerKeys(layers []NetworkLayer, opts NetworkOptions) []string {
	seen := make(map[string]bool)
	var keys []string
	for _, l := range layers {
		for _, k := range candidateKinds(l.Shape, opts) {
			if key := cacheKey(arch.Name, k, l.Shape); !seen[key] {
				seen[key] = true
				keys = append(keys, key)
			}
		}
	}
	return keys
}

// The lookup pass books the cache exactly as the sweep would: one hit and
// one recency bump per distinct key when it answers, nothing when it falls
// through (the sweep then counts each key once), and under a TTL an expired
// entry is still a miss and is evicted.
func TestLookupPassCacheAccounting(t *testing.T) {
	layers := resnetBlockLayers()
	opts := NetworkOptions{Tune: smallOpts(8, 5), Winograd: true, Kinds: Kinds}
	keys := layerKeys(layers, opts)
	d := int64(len(keys))
	filled := func(policy EvictionPolicy) (*Cache, []LayerVerdict) {
		c := NewCache()
		c.SetEviction(policy)
		v, err := TuneNetwork(arch, layers, c, opts)
		if err != nil {
			t.Fatal(err)
		}
		if c.Len() != len(keys) {
			t.Fatalf("cold sweep cached %d keys, want %d", c.Len(), len(keys))
		}
		return c, v
	}
	delta := func(before, after CacheStats) CacheStats {
		return CacheStats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses,
			Evictions: after.Evictions - before.Evictions}
	}
	var p probe

	t.Run("hit", func(t *testing.T) {
		const fillers = 4
		c, cold := filled(EvictionPolicy{MaxEntries: len(keys) + fillers})
		for i := 0; i < fillers; i++ {
			c.Put(arch.Name, Direct, evictShape(i), conv.Config{}, Measurement{Seconds: 1, GFLOPS: 1})
		}
		before := c.Stats()
		p.reset()
		got, err := TuneNetwork(arch, layers, c, p.opts(opts))
		if err != nil {
			t.Fatal(err)
		}
		sameAsCold(t, "hit", cold, got)
		if p.wrapped.Load() != 0 {
			t.Fatal("a fully cached network took the sweep path")
		}
		if got, want := delta(before, c.Stats()), (CacheStats{Hits: d}); got != want {
			t.Errorf("stats delta %+v, want %+v", got, want)
		}
		// Every network key was touched after the fillers, so new entries
		// must push out exactly the fillers.
		for i := 0; i < fillers; i++ {
			c.Put(arch.Name, Direct, evictShape(100+i), conv.Config{}, Measurement{Seconds: 1, GFLOPS: 1})
		}
		for i := 0; i < fillers; i++ {
			if c.hasKey(cacheKey(arch.Name, Direct, evictShape(i))) {
				t.Errorf("filler %d survived; a network key was evicted in its place", i)
			}
		}
		for _, key := range keys {
			if !c.hasKey(key) {
				t.Errorf("network key %s evicted despite its recency bump", key)
			}
		}
	})

	t.Run("miss", func(t *testing.T) {
		c, cold := filled(EvictionPolicy{MaxEntries: 1000})
		c.remove(keys[len(keys)-1])
		before := c.Stats()
		p.reset()
		got, err := TuneNetwork(arch, layers, c, p.opts(opts))
		if err != nil {
			t.Fatal(err)
		}
		for i := range cold {
			if got[i].Config != cold[i].Config || got[i].M != cold[i].M || got[i].Kind != cold[i].Kind {
				t.Errorf("layer %s: re-tuned verdict differs from the cold sweep", cold[i].Layer.Name)
			}
		}
		if p.wrapped.Load() == 0 {
			t.Fatal("a network with a missing key did not take the sweep path")
		}
		// The sweep books every key once — the missing one as a miss at its
		// first check, the re-check under the in-flight lock counts
		// nothing — and the lookup pass must add nothing to that.
		if got, want := delta(before, c.Stats()), (CacheStats{Hits: d - 1, Misses: 1}); got != want {
			t.Errorf("stats delta %+v, want %+v (the lookup pass must count nothing)", got, want)
		}
	})

	t.Run("ttl", func(t *testing.T) {
		now := time.Unix(1000, 0)
		c, cold := filled(EvictionPolicy{TTL: time.Minute, Now: func() time.Time { return now }})
		stale := keys[0]
		// Refresh every key but one at t+50s; at t+70s only that one has
		// been idle past the minute.
		now = now.Add(50 * time.Second)
		for _, e := range entriesOf(c, false) {
			k, _ := kindFromString(e.Kind)
			if cacheKey(e.Arch, k, e.Shape.shape()) != stale {
				c.Get(e.Arch, k, e.Shape.shape())
			}
		}
		now = now.Add(20 * time.Second)
		before := c.Stats()
		p.reset()
		got, err := TuneNetwork(arch, layers, c, p.opts(opts))
		if err != nil {
			t.Fatal(err)
		}
		for i := range cold {
			if got[i].Config != cold[i].Config || got[i].M != cold[i].M || got[i].Kind != cold[i].Kind {
				t.Errorf("layer %s: re-tuned verdict differs from the cold sweep", cold[i].Layer.Name)
			}
		}
		if p.wrapped.Load() == 0 {
			t.Fatal("an expired key did not take the sweep path")
		}
		// The sweep's first check misses on the expired entry and evicts
		// it; its re-check under the in-flight lock counts nothing.
		if got, want := delta(before, c.Stats()), (CacheStats{Hits: d - 1, Misses: 1, Evictions: 1}); got != want {
			t.Errorf("stats delta %+v, want %+v", got, want)
		}
	})
}

// hasKey inspects a cache without touching its accounting.
func (c *Cache) hasKey(key string) bool {
	sh := c.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	_, ok := sh.entries[key]
	return ok
}

// A layer shape the sweep rejects keeps its error even when the cache holds
// an entry under the same key: Groups -1 addresses the dense key, but the
// lookup pass must not answer it.
func TestLookupPassLeavesInvalidShapesToTheSweep(t *testing.T) {
	s := layer()
	cache := NewCache()
	cache.Put(arch.Name, Direct, s, conv.Config{}, Measurement{Seconds: 1, GFLOPS: 1})
	s.Groups = -1
	layers := []NetworkLayer{{Name: "bad", Shape: s, Repeat: 1}}
	if _, err := TuneNetwork(arch, layers, cache, NetworkOptions{Tune: smallOpts(8, 1)}); err == nil {
		t.Error("a layer with a negative group count was answered from the cache")
	}
}

// Concurrent replays of a fully cached network share the cache's
// accounting records: each answers with the cold sweep's verdicts and books
// its own hits. The go test -race target for the lookup pass.
func TestLookupPassConcurrentReplays(t *testing.T) {
	layers := resnetBlockLayers()
	opts := NetworkOptions{Tune: smallOpts(8, 2), Winograd: true}
	cache := NewCache()
	cache.SetEviction(EvictionPolicy{MaxEntries: 1000, TTL: time.Hour})
	cold, err := TuneNetwork(arch, layers, cache, opts)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	before := cache.Stats()
	got := make([][]LayerVerdict, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for g := 0; g < callers; g++ {
		go func(g int) {
			defer wg.Done()
			got[g], errs[g] = TuneNetwork(arch, layers, cache, opts)
		}(g)
	}
	wg.Wait()
	for g := 0; g < callers; g++ {
		if errs[g] != nil {
			t.Fatalf("caller %d: %v", g, errs[g])
		}
		sameAsCold(t, fmt.Sprintf("caller %d", g), cold, got[g])
	}
	want := int64(callers * len(layerKeys(layers, opts)))
	if hits := cache.Stats().Hits - before.Hits; hits != want {
		t.Errorf("%d hits over %d replays, want %d", hits, callers, want)
	}
}
