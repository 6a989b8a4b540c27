// Package serve is the lattice-aware online serving layer over the
// finest cuboid (§5.1). Instead of rescanning every leaf cell per query —
// O(leaf) work however coarse the group-by — it keeps a registry of
// resident cuboids keyed by lattice.Mask and answers each query from the
// smallest resident ancestor (Gray et al.'s cube-lattice observation: any
// cuboid is derivable from any superset cuboid by further aggregation).
// Computed cuboids are admitted into a byte-budgeted cache, so repeated
// and nearby query shapes amortize to near-lookup cost. Concurrent
// identical misses are coalesced so each cuboid is computed once
// (singleflight).
//
// The leaf is either pinned in memory — outside the cache, never
// evicted, an ancestor of every query — or left in a columnar Source
// (the segment tier). The two differ only in the fallback for a miss no
// cached ancestor covers: aggregate the pinned leaf, or stream the
// queried columns from the source.
//
// Residency is governed by one of two policies. The default LRU admits
// every computed cuboid and evicts by recency. The adaptive policy
// (PolicyAdaptive) instead tracks per-cuboid demand and measured derive
// cost in a stats table, periodically runs a greedy benefit-per-byte plan
// over the lattice (policy.go), materializes missing winners in the
// background (background.go), and evicts the resident cuboid with the
// lowest retained benefit per byte. Both policies serve byte-identical
// answers — residency only decides how fast, never what.
package serve

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"icebergcube/internal/lattice"
	"icebergcube/internal/relation"
)

// DefaultBudgetBytes is the cache budget used when the caller passes a
// non-positive budget: large enough to hold the hot cuboids of any of the
// paper's workloads, small enough to stay irrelevant next to the leaf.
const DefaultBudgetBytes = 64 << 20

// QueryStats describes how one query was served — threaded back to the
// caller for observability and asserted on by the serving experiments.
type QueryStats struct {
	// Query is the requested group-by.
	Query lattice.Mask
	// ServedFrom is the resident cuboid the answer came from: Query
	// itself on a cache hit or a source scan, else the smallest resident
	// ancestor that was aggregated.
	ServedFrom lattice.Mask
	// CacheHit reports the answer was already resident (no aggregation).
	CacheHit bool
	// Coalesced reports this query waited on an identical in-flight miss
	// instead of computing its own copy.
	Coalesced bool
	// ColdScan reports the answer was streamed from the source (no
	// resident ancestor covered the query); RowsScanned counts the source
	// rows it read.
	ColdScan    bool
	RowsScanned int64
	// CellsScanned is the number of ancestor cells aggregated (0 on a hit
	// or a source scan).
	CellsScanned int
	// ResultCells is the answer cuboid's cell count.
	ResultCells int
	// Admitted reports the computed cuboid was retained in the cache.
	Admitted bool
	// Evicted is the number of cuboids evicted to admit this one.
	Evicted int
}

// Metrics are the server's cumulative counters.
type Metrics struct {
	// Queries counts the calls that passed the entry checks (a valid mask
	// and a live context). Each lands in exactly one of CacheHits,
	// Coalesced, Computes and Canceled, so at quiescence Queries =
	// CacheHits + Coalesced + Computes + Canceled, less the calls whose
	// context had already ended at entry: those count in Canceled only.
	Queries int64
	// CacheHits counts queries answered from a resident cuboid (leaf
	// included) without aggregation.
	CacheHits int64
	// Coalesced counts queries that piggybacked on an identical
	// in-flight miss.
	Coalesced int64
	// Computes counts foreground derivations performed (cache misses
	// that did work; background fills are counted separately).
	Computes int64
	// LeafAggregations / AncestorAggregations / ColdScans split Computes
	// by source: the pinned leaf, a smaller cached ancestor, or a scan of
	// the source. RowsScanned totals the source rows streamed.
	LeafAggregations     int64
	AncestorAggregations int64
	ColdScans            int64
	RowsScanned          int64
	// Admitted / Rejected / Evictions are cache admission-control
	// counters; EvictedBytes totals the evicted cuboids' footprint.
	Admitted     int64
	Rejected     int64
	Evictions    int64
	EvictedBytes int64
	// BackgroundFills counts cuboids computed by the background
	// materializer on the adaptive planner's behalf; BackgroundAdmitted
	// counts how many of those the cache retained.
	BackgroundFills    int64
	BackgroundAdmitted int64
	// Replans counts adaptive planning passes (query-count periodic and
	// commit-triggered).
	Replans int64
	// Canceled counts queries abandoned by context cancellation before an
	// answer was produced (at entry, while waiting on a coalesced flight,
	// before becoming the flight leader, or mid-scan).
	Canceled int64
	// ResidentBytes / ResidentCuboids describe the cache's current
	// occupancy (the pinned leaf is excluded). ResidentBytes ≤
	// BudgetBytes always.
	ResidentBytes   int64
	ResidentCuboids int
	// BudgetBytes is the configured cache budget.
	BudgetBytes int64
	// LeafBytes is the pinned leaf's footprint (not budgeted; 0 for a
	// source-backed server).
	LeafBytes int64
	// Policy names the active admission policy ("lru" or "adaptive").
	Policy string
}

// Server answers group-by queries over one leaf cuboid, pinned in memory
// or left in a Source. Safe for concurrent use.
type Server struct {
	// Exactly one of leaf and src is set.
	leaf  *Cuboid
	src   Source
	full  lattice.Mask // every leaf dimension
	cards []int        // per leaf column: code cardinality, for radix sizing
	cache *cache
	stats *statsTable

	mu       sync.Mutex
	inflight map[lattice.Mask]*flight

	scratch sync.Pool // *relation.Scratch, one per aggregating goroutine

	// opt is the active policy; bg the optional background executor; both
	// swap atomically (SetPolicy / Handoff).
	opt atomic.Pointer[PolicyOptions]
	bg  atomic.Pointer[Background]
	// planned is the last re-plan's winner set (CuboidStats.Planned).
	planned atomic.Pointer[map[lattice.Mask]bool]

	// replanTick counts foreground queries toward the periodic re-plan;
	// replanNeeded forces one at the next opportunity (policy switch,
	// commit handoff without an executor); planning serializes passes.
	replanTick   atomic.Int64
	replanNeeded atomic.Bool
	planning     atomic.Bool

	// retired marks the server superseded by a commit: background work
	// for it is dropped (the version stays queryable for pinned readers).
	retired atomic.Bool

	// testBeforeAdmit, when set, runs between a miss's aggregation and
	// its cache admission — the window the generation guard protects.
	// Tests use it to interleave Reset/Invalidate/SetBudget
	// deterministically with an in-flight computation. testOnWait, when
	// set, runs as a query starts waiting on another query's flight.
	testBeforeAdmit func()
	testOnWait      func()

	queries     atomic.Int64
	hits        atomic.Int64
	coalesced   atomic.Int64
	canceled    atomic.Int64
	leafAggs    atomic.Int64
	ancAggs     atomic.Int64
	coldScans   atomic.Int64
	rowsScanned atomic.Int64
	bgFills     atomic.Int64
	bgAdmitted  atomic.Int64
	replans     atomic.Int64
}

// flight is one in-progress cuboid computation; duplicate queriers wait
// on done and share the result. abandoned reports the computation failed
// only because its leader's context ended — an error no waiter inherits.
type flight struct {
	done      chan struct{}
	cub       *Cuboid
	stats     QueryStats
	err       error
	abandoned bool
}

// NewServer builds a server over a pinned leaf cuboid with the default
// LRU policy. cards gives the code cardinality of each leaf column (used
// to size radix passes and the planner's size estimates); budgetBytes ≤ 0
// selects DefaultBudgetBytes. Use SetPolicy to switch to the adaptive
// policy.
func NewServer(leaf *Cuboid, cards []int, budgetBytes int64) *Server {
	return newServer(leaf, nil, leaf.Mask, cards, budgetBytes)
}

// NewSourceServer builds a server that leaves the leaf in src: a miss no
// resident ancestor covers streams just the queried columns, so peak
// memory is the cache plus one result — never the leaf. cards and
// budgetBytes are as for NewServer.
func NewSourceServer(src Source, cards []int, budgetBytes int64) (*Server, error) {
	w := src.Width()
	if w != len(cards) {
		return nil, fmt.Errorf("serve: source has %d dims but %d cardinalities", w, len(cards))
	}
	if w <= 0 || w >= 32 {
		return nil, fmt.Errorf("serve: source width %d out of range", w)
	}
	return newServer(nil, src, lattice.Mask(1)<<uint(w)-1, cards, budgetBytes), nil
}

func newServer(leaf *Cuboid, src Source, full lattice.Mask, cards []int, budgetBytes int64) *Server {
	if budgetBytes <= 0 {
		budgetBytes = DefaultBudgetBytes
	}
	s := &Server{
		leaf:     leaf,
		src:      src,
		full:     full,
		cards:    append([]int(nil), cards...),
		cache:    newCache(budgetBytes),
		stats:    newStatsTable(),
		inflight: make(map[lattice.Mask]*flight),
	}
	opt := PolicyOptions{Policy: PolicyLRU}.withDefaults()
	s.opt.Store(&opt)
	s.scratch.New = func() any { return relation.NewScratch() }
	return s
}

// Leaf returns the pinned leaf cuboid (nil for a source-backed server).
func (s *Server) Leaf() *Cuboid { return s.leaf }

// pinned reports whether q is the pinned leaf's mask: answered by the
// leaf itself, never cached.
func (s *Server) pinned(q lattice.Mask) bool { return s.leaf != nil && q == s.full }

// leafRows is the leaf's cell count, or the source's row count.
func (s *Server) leafRows() int {
	if s.leaf != nil {
		return s.leaf.Rows()
	}
	return s.src.Rows()
}

// SetBudget changes the cache byte budget, evicting as needed.
func (s *Server) SetBudget(budgetBytes int64) {
	if budgetBytes <= 0 {
		budgetBytes = DefaultBudgetBytes
	}
	s.cache.setBudget(budgetBytes)
}

// Reset drops every cached cuboid (a pinned leaf stays). Benchmarks use
// it to measure the cold path.
func (s *Server) Reset() { s.cache.reset() }

// Invalidate drops one cached cuboid if resident.
func (s *Server) Invalidate(q lattice.Mask) { s.cache.remove(q) }

// SetPolicy installs the admission policy and optional background
// executor (nil keeps fills and re-plans synchronous: a re-plan then runs
// inline on the query that triggers it and materializes missing winners
// before returning — the deterministic mode tests and the adaptive-vs-LRU
// oracle use). Switching to the adaptive policy schedules an immediate
// re-plan; switching back to LRU stops planning but keeps the resident
// set. Safe to call while queries are in flight.
func (s *Server) SetPolicy(o PolicyOptions, bg *Background) {
	o = o.withDefaults()
	s.opt.Store(&o)
	s.bg.Store(bg)
	s.cache.setPolicy(o.Policy == PolicyAdaptive, o.Seed)
	if o.Policy == PolicyAdaptive {
		s.replanNeeded.Store(true)
	}
}

// Policy returns the active policy options.
func (s *Server) Policy() PolicyOptions { return *s.opt.Load() }

// Retire marks the server superseded by a newer version: queued and
// future background work for it is dropped. Pinned readers keep querying
// it; retirement only stops speculative cache work.
func (s *Server) Retire() { s.retired.Store(true) }

// Handoff carries the serving policy, background executor and workload
// model to the successor server and retires this one — the commit path
// calls it after warming the successor with the folded residents, so
// demand observed on version v keeps steering version v+1's plan, and a
// commit acts as a re-plan trigger (asynchronously when an executor is
// attached, at the successor's next query otherwise).
func (s *Server) Handoff(next *Server) {
	next.stats.adopt(s.stats.snapshot())
	opt := *s.opt.Load()
	bg := s.bg.Load()
	next.SetPolicy(opt, bg)
	s.Retire()
	if opt.Policy == PolicyAdaptive && bg != nil {
		bg.submitReplan(next)
	}
}

// Query returns the cuboid for group-by q (bit i = leaf column i) along
// with how it was served. The returned cuboid is immutable and remains
// valid after eviction.
func (s *Server) Query(q lattice.Mask) (*Cuboid, QueryStats, error) {
	return s.QueryCtx(context.Background(), q)
}

// QueryCtx is Query with caller cancellation: the context is checked at
// entry, before this query becomes the singleflight leader for a miss,
// while waiting on a coalesced in-flight computation, and between the
// chunks of a source scan. An in-memory derivation always runs to
// completion — it serves every coalesced waiter and the cache, and it is
// short — but a source scan is long enough to be worth tearing down, so
// an abandoned client stops burning disk reads. A waiter whose leader was
// torn down that way re-enters the query under its own context.
func (s *Server) QueryCtx(ctx context.Context, q lattice.Mask) (*Cuboid, QueryStats, error) {
	if !q.SubsetOf(s.full) {
		return nil, QueryStats{}, fmt.Errorf("serve: mask %b is not a subset of the leaf %b", q, s.full)
	}
	if err := ctx.Err(); err != nil {
		s.canceled.Add(1)
		return nil, QueryStats{}, err
	}
	s.queries.Add(1)
	if s.pinned(q) {
		s.hits.Add(1)
		return s.leaf, QueryStats{Query: q, ServedFrom: q, CacheHit: true, ResultCells: s.leaf.Rows()}, nil
	}
	for {
		if cub, ok := s.cache.get(q); ok {
			s.hits.Add(1)
			s.stats.recordHit(q, cub.Rows(), cub.SizeBytes())
			s.maybeReplan()
			return cub, QueryStats{Query: q, ServedFrom: q, CacheHit: true, ResultCells: cub.Rows()}, nil
		}

		// Miss: coalesce with an identical in-flight computation, else
		// become the filler for this mask.
		s.mu.Lock()
		if f, ok := s.inflight[q]; ok {
			s.mu.Unlock()
			if s.testOnWait != nil {
				s.testOnWait()
			}
			select {
			case <-f.done:
			case <-ctx.Done():
				s.canceled.Add(1)
				return nil, QueryStats{}, ctx.Err()
			}
			if f.abandoned {
				continue // the leader's cancellation is not ours: retry
			}
			s.coalesced.Add(1)
			if f.err != nil {
				return nil, QueryStats{}, f.err
			}
			stats := f.stats
			stats.Coalesced = true
			// A coalesced query is demand evidence like any hit.
			s.stats.recordHit(q, f.cub.Rows(), f.cub.SizeBytes())
			s.maybeReplan()
			return f.cub, stats, nil
		}
		if err := ctx.Err(); err != nil {
			// Last check before committing to the derivation.
			s.mu.Unlock()
			s.canceled.Add(1)
			return nil, QueryStats{}, err
		}
		f := &flight{done: make(chan struct{})}
		s.inflight[q] = f
		s.mu.Unlock()

		cub, st, err := s.compute(ctx, q, false, 0)
		f.cub, f.stats, f.err = cub, st, err
		f.abandoned = err != nil && ctx.Err() != nil
		s.mu.Lock()
		delete(s.inflight, q)
		s.mu.Unlock()
		close(f.done)
		switch {
		case f.abandoned:
			s.canceled.Add(1)
		case err != nil:
			s.coldScans.Add(1) // a failed scan still did a scan's work
		default:
			s.maybeReplan()
		}
		return cub, st, err
	}
}

// derivation is one miss's answer and what it cost.
type derivation struct {
	cub *Cuboid
	// from is the ancestor aggregated (q itself for a source scan);
	// scanned its cell count, or the source rows streamed when cold.
	from    lattice.Mask
	scanned int
	cold    bool
	// gen is the cache generation observed before any resident state
	// was read — admissions of this result must carry it.
	gen uint64
}

// derive aggregates q from the smallest resident ancestor (a pinned leaf
// included) without touching the cache's admission state; a
// source-backed server with no covering ancestor scans the source.
func (s *Server) derive(ctx context.Context, q lattice.Mask) (derivation, error) {
	// Capture the cache generation before reading any resident state: if
	// a Reset or Invalidate lands while we aggregate, the admission is
	// rejected instead of resurrecting a cuboid the invalidation was
	// meant to drop. The served answer itself stays valid — it was
	// aggregated from the immutable leaf or an immutable ancestor copy.
	d := derivation{gen: s.cache.generation()}

	// Candidate ancestors: every cached cuboid plus a pinned leaf.
	resident := s.cache.residentMasks(make([]maskSize, 0, 16))
	if s.leaf != nil {
		resident = append(resident, maskSize{mask: s.full, rows: s.leaf.Rows()})
	}
	rows := make(map[lattice.Mask]int, len(resident))
	masks := make([]lattice.Mask, 0, len(resident))
	for _, ms := range resident {
		if _, ok := rows[ms.mask]; !ok {
			rows[ms.mask] = ms.rows
			masks = append(masks, ms.mask)
		}
	}
	src := s.leaf
	if from, ok := lattice.SmallestAncestor(q, masks, func(m lattice.Mask) int { return rows[m] }); ok && !s.pinned(from) {
		if c, live := s.cache.get(from); live {
			src = c
		} // else evicted between selection and fetch: fall back
	}

	sc := s.scratch.Get().(*relation.Scratch)
	defer s.scratch.Put(sc)
	if src == nil {
		cub, n, err := s.coldScan(ctx, q, sc)
		if err != nil {
			return derivation{}, err
		}
		d.cub, d.from, d.scanned, d.cold = cub, q, int(n), true
		return d, nil
	}
	cols, cards := s.projection(src.Mask, q)
	d.cub, d.from, d.scanned = aggregateFrom(src, q, cols, cards, sc), src.Mask, src.Rows()
	return d, nil
}

// projection returns, for each attribute of q in ascending order, its
// column index within a cuboid of mask src (q ⊆ src) and its code
// cardinality for the radix sort.
func (s *Server) projection(src, q lattice.Mask) (cols, cards []int) {
	srcPos := make(map[int]int, src.Count())
	for i, d := range src.Dims() {
		srcPos[d] = i
	}
	qDims := q.Dims()
	cols = make([]int, len(qDims))
	cards = make([]int, len(qDims))
	for i, d := range qDims {
		cols[i] = srcPos[d]
		cards[i] = s.cards[d]
	}
	return cols, cards
}

// compute derives q and admits the result into the cache. Background
// fills (the adaptive planner's materializations) record into the stats
// table as fills — not demand — and admit with the planner's score
// instead of the admission score.
func (s *Server) compute(ctx context.Context, q lattice.Mask, background bool, planScore float64) (*Cuboid, QueryStats, error) {
	d, err := s.derive(ctx, q)
	if err != nil {
		return nil, QueryStats{}, err
	}
	rows, size := d.cub.Rows(), d.cub.SizeBytes()
	stats := QueryStats{Query: q, ServedFrom: d.from, ResultCells: rows}
	if d.cold {
		stats.ColdScan, stats.RowsScanned = true, int64(d.scanned)
		s.rowsScanned.Add(stats.RowsScanned)
	} else {
		stats.CellsScanned = d.scanned
	}

	score := planScore
	if background {
		s.bgFills.Add(1)
		s.stats.recordFill(q, rows, size, d.scanned)
	} else {
		switch {
		case d.cold:
			s.coldScans.Add(1)
		case s.pinned(d.from):
			s.leafAggs.Add(1)
		default:
			s.ancAggs.Add(1)
		}
		s.stats.recordMiss(q, rows, size, d.scanned)
		score = admissionScore(s.stats.demand(q), d.scanned, rows, size)
	}

	if s.testBeforeAdmit != nil {
		s.testBeforeAdmit()
	}

	stats.Admitted, stats.Evicted = s.cache.add(q, d.cub, d.gen, score)
	if background && stats.Admitted {
		s.bgAdmitted.Add(1)
	}
	return d.cub, stats, nil
}

// fill is one background materialization: compute q and admit it with the
// planner's score, through the same singleflight and generation machinery
// as a foreground miss, so a fill can never race an invalidation or a
// committing writer into an inconsistent resident set. Foreground queries
// arriving while the fill is in flight coalesce onto it. A fill for a
// mask that is already resident, already being computed, or belongs to a
// retired server is skipped.
func (s *Server) fill(q lattice.Mask, score float64) {
	if s.retired.Load() || s.pinned(q) || !q.SubsetOf(s.full) {
		return
	}
	if s.cache.peek(q) {
		return
	}
	s.mu.Lock()
	if _, ok := s.inflight[q]; ok {
		s.mu.Unlock()
		return
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[q] = f
	s.mu.Unlock()

	f.cub, f.stats, f.err = s.compute(context.Background(), q, true, score)
	s.mu.Lock()
	delete(s.inflight, q)
	s.mu.Unlock()
	close(f.done)
}

// maybeReplan advances the periodic re-plan counter on a foreground query
// and triggers a pass when due (or when one was forced by a policy switch
// or commit handoff).
func (s *Server) maybeReplan() {
	opt := s.opt.Load()
	if opt.Policy != PolicyAdaptive || s.retired.Load() {
		return
	}
	tick := s.replanTick.Add(1)
	if s.replanNeeded.CompareAndSwap(true, false) || tick%int64(opt.ReplanEvery) == 0 {
		if bg := s.bg.Load(); bg != nil {
			bg.submitReplan(s)
		} else {
			s.Replan()
		}
	}
}

// Replan runs one adaptive planning pass now: snapshot the stats table,
// run the greedy benefit-per-byte selection, install the retained-benefit
// scores on the cache, and materialize winners that are not resident —
// via the background executor when one is attached, synchronously
// otherwise. A no-op under LRU; concurrent calls collapse to one pass.
// The pass is deterministic given the stats snapshot and the seed.
func (s *Server) Replan() {
	opt := s.opt.Load()
	if opt.Policy != PolicyAdaptive {
		return
	}
	if !s.planning.CompareAndSwap(false, true) {
		return
	}
	defer s.planning.Store(false)
	s.replans.Add(1)

	res := planAdaptive(planInput{
		stats:    s.stats.snapshot(),
		leafMask: s.full,
		leafRows: s.leafRows(),
		cards:    s.cards,
		budget:   s.Budget(),
		seed:     opt.Seed,
	})
	s.cache.setScores(res.scores)
	planned := make(map[lattice.Mask]bool, len(res.winners))
	for _, w := range res.winners {
		planned[w] = true
	}
	s.planned.Store(&planned)

	var missing []fillReq
	for _, w := range res.winners {
		if !s.cache.peek(w) {
			missing = append(missing, fillReq{mask: w, score: res.scores[w]})
		}
	}
	if len(missing) == 0 {
		return
	}
	if bg := s.bg.Load(); bg != nil {
		bg.submitFills(s, missing)
		return
	}
	for _, f := range missing {
		s.fill(f.mask, f.score)
	}
}

// Resident returns the cached (non-leaf) cuboids in recency order, most
// recently used first. The cuboids are immutable; the commit path folds
// each one forward into the next snapshot's server.
func (s *Server) Resident() []*Cuboid { return s.cache.resident() }

// Warm pre-admits cuboids into the cache. cubs is in recency order, most
// recently used first (the order Resident returns); admission runs in
// reverse so the resulting LRU order matches. The snapshot-commit path
// seeds a new version's server with the previous version's folded
// residents so that commit does not cool the cache; admissions respect
// the byte budget like any other. Under the adaptive policy the carried
// residents are pinned above any admission score until the first re-plan
// rescores them (the commit handoff schedules that re-plan).
func (s *Server) Warm(cubs []*Cuboid) {
	for i := len(cubs) - 1; i >= 0; i-- {
		cub := cubs[i]
		if s.pinned(cub.Mask) {
			continue
		}
		s.cache.add(cub.Mask, cub, s.cache.generation(), infScore)
	}
}

// Precompute computes the cuboids of the given masks and admits them in
// benefit order — cells saved per query (leaf rows minus cuboid rows)
// normalized by footprint, descending, ties broken by ascending mask —
// until the byte budget is spent, and reports the masks whose cuboids
// were computed but not retained. Admission is therefore deterministic in
// the mask *set*, not the caller's order. Crash recovery uses it to
// rebuild the warm set recorded in the last commit marker. The
// computations record into the stats table as background fills, not
// demand; duplicate masks and a pinned leaf are ignored, and a mask whose
// source scan fails is reported as skipped.
func (s *Server) Precompute(masks []lattice.Mask) (admitted int, skipped []lattice.Mask) {
	type pre struct {
		mask  lattice.Mask
		d     derivation
		score float64
	}
	seen := make(map[lattice.Mask]bool, len(masks))
	var todo []pre
	for _, q := range masks {
		if s.pinned(q) || seen[q] || !q.SubsetOf(s.full) {
			continue
		}
		seen[q] = true
		if s.cache.peek(q) {
			admitted++
			continue
		}
		d, err := s.derive(context.Background(), q)
		if err != nil {
			skipped = append(skipped, q)
			continue
		}
		s.bgFills.Add(1)
		s.stats.recordFill(q, d.cub.Rows(), d.cub.SizeBytes(), d.scanned)
		todo = append(todo, pre{
			mask:  q,
			d:     d,
			score: admissionScore(1, s.leafRows(), d.cub.Rows(), d.cub.SizeBytes()),
		})
	}
	sort.Slice(todo, func(a, b int) bool {
		if todo[a].score != todo[b].score {
			return todo[a].score > todo[b].score
		}
		return todo[a].mask < todo[b].mask
	})
	for _, p := range todo {
		ok, _ := s.cache.add(p.mask, p.d.cub, p.d.gen, p.score)
		if ok {
			admitted++
			s.bgAdmitted.Add(1)
		} else {
			skipped = append(skipped, p.mask)
		}
	}
	return admitted, skipped
}

// CuboidStats returns the per-cuboid stats table — every group-by shape
// the server has seen or filled, sorted by mask, annotated with current
// residency and the last plan's winner set. The CLI dumps these
// (icecube -stats); the adaptive planner consumes the same snapshot.
func (s *Server) CuboidStats() []CuboidStats {
	rows := s.stats.snapshot()
	resident := s.cache.residentSet()
	var planned map[lattice.Mask]bool
	if p := s.planned.Load(); p != nil {
		planned = *p
	}
	for i := range rows {
		rows[i].Resident = resident[rows[i].Mask]
		rows[i].Planned = planned[rows[i].Mask]
	}
	return rows
}

// Budget returns the configured cache byte budget.
func (s *Server) Budget() int64 {
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	return s.cache.budget
}

// Stats returns the cumulative serving metrics.
func (s *Server) Stats() Metrics {
	c := s.cache
	c.mu.Lock()
	m := Metrics{
		Admitted:        c.admitted,
		Rejected:        c.rejected,
		Evictions:       c.evictions,
		EvictedBytes:    c.evictedBytes,
		ResidentBytes:   c.bytes,
		ResidentCuboids: len(c.byMask),
		BudgetBytes:     c.budget,
	}
	c.mu.Unlock()
	m.Queries = s.queries.Load()
	m.CacheHits = s.hits.Load()
	m.Coalesced = s.coalesced.Load()
	m.Canceled = s.canceled.Load()
	m.LeafAggregations = s.leafAggs.Load()
	m.AncestorAggregations = s.ancAggs.Load()
	m.ColdScans = s.coldScans.Load()
	m.RowsScanned = s.rowsScanned.Load()
	m.Computes = m.LeafAggregations + m.AncestorAggregations + m.ColdScans
	m.BackgroundFills = s.bgFills.Load()
	m.BackgroundAdmitted = s.bgAdmitted.Load()
	m.Replans = s.replans.Load()
	if s.leaf != nil {
		m.LeafBytes = s.leaf.SizeBytes()
	}
	m.Policy = s.opt.Load().Policy.String()
	return m
}
