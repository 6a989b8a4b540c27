package main

import (
	"math"
	"math/rand"
	"strconv"
	"strings"

	"icebergcube/internal/httpserve"
)

// dimSpec is one weather-like column: its name, cardinality and power-law
// skew (value code = ⌊card·u^skew⌋ for u uniform in [0,1); 1 is uniform,
// larger values pile mass onto low codes).
type dimSpec struct {
	name string
	card int
	skew float64
}

// weatherDims is the paper's 20-dimension weather relation as the
// repository's generator models it: the same cardinality spread (the nine
// smallest multiply to ≈10^7 possible cells, the nine largest to ≈10^21)
// and the same skew profile, including the strongly skewed 11th
// dimension behind the paper's 40× partition imbalance.
var weatherDims = []dimSpec{
	{"station", 7037, 2.0}, {"date", 3053, 1.3}, {"solar", 715, 1.3},
	{"pressure", 352, 3.0}, {"windspeed", 179, 1.3}, {"visibility", 64, 1.3},
	{"humidity", 48, 1.3}, {"temperature", 36, 3.5}, {"dewpoint", 26, 1.3},
	{"cloudhigh", 21, 1.3}, {"cloudmid", 16, 4.0}, {"cloudlow", 10, 1.3},
	{"windchill", 9, 1.3}, {"gust", 8, 3.0}, {"precip", 7, 1.3},
	{"season", 4, 1.3}, {"frontal", 4, 2.5}, {"hemisphere", 2, 1.3},
	{"land", 2, 1.3}, {"daynight", 2, 1.3},
}

// rowGen draws weather-like rows over a subset of weatherDims. Values are
// decimal code strings, interned per dimension so a large row set shares
// them; measures are whole numbers in [0, 1000), so every SUM and AVG is
// exact in float64 whatever order a layer aggregates in.
type rowGen struct {
	dims []dimSpec
	vals [][]string
	rng  *rand.Rand
}

func newRowGen(names []string, seed int64) *rowGen {
	g := &rowGen{rng: rand.New(rand.NewSource(seed))}
	for _, n := range names {
		for _, d := range weatherDims {
			if d.name == n {
				vals := make([]string, d.card)
				for v := range vals {
					vals[v] = strconv.Itoa(v)
				}
				g.dims = append(g.dims, d)
				g.vals = append(g.vals, vals)
			}
		}
	}
	if len(g.dims) != len(names) {
		panic("perfbench: unknown weather dimension in " + strings.Join(names, ","))
	}
	return g
}

func (g *rowGen) row() []string {
	r := make([]string, len(g.dims))
	for i, d := range g.dims {
		v := int(math.Pow(g.rng.Float64(), d.skew) * float64(d.card))
		if v >= d.card {
			v = d.card - 1
		}
		r[i] = g.vals[i][v]
	}
	return r
}

// rows draws n rows and their measures.
func (g *rowGen) rows(n int) ([][]string, []float64) {
	rows := make([][]string, n)
	meas := make([]float64, n)
	for i := range rows {
		rows[i] = g.row()
		meas[i] = math.Floor(g.rng.Float64() * 1000)
	}
	return rows, meas
}

// weatherNames lists the dimension names of weatherDims in order.
func weatherNames() []string {
	out := make([]string, len(weatherDims))
	for i, d := range weatherDims {
		out[i] = d.name
	}
	return out
}

// opKind says what one operation of a workload does.
type opKind int

const (
	opQuery opKind = iota
	opMutate
)

// op is one client operation. A mutate carries the rows it appends; the
// rows it deletes are bound when it runs, from rows earlier mutates
// appended and committed (see mutPool).
type op struct {
	kind    opKind
	groupBy []string
	minSup  int64
	url     string // path and query of a query op
	appends []httpserve.MutateRow
	deletes int
}

// The query mix. Its Zipf law is cubewarp's default (-zipf-s 1.4, v = 4),
// the repository's load harness, so the repository states one query
// distribution. It ranks the whole lattice, ALL included, by width and
// then attribute order instead of shuffling it: over six attributes
// 13.7% of queries ask for ALL, 78.7% for 1–3 attributes and 7.6% for 4
// up to the leaf, whatever the seed. min_support is drawn uniformly from
// the paper's minimum-support sweep (Fig. 4.5: 1, 2, 4, 8, 16).
const (
	zipfS = 1.4
	zipfV = 4
)

var minSupports = []int64{1, 2, 4, 8, 16}

// queryMix states the mix in each result's fingerprint.
var queryMix = map[string]any{
	"zipf_s": zipfS, "zipf_v": zipfV, "ranked_by": "width, then attribute order",
	"min_supports": minSupports, "source": "cubewarp's Zipf defaults; the paper's Fig. 4.5 min_support sweep",
}

// A mutate appends one row, as cubewarp's do, and deletes one row an
// earlier mutate appended, so the relation keeps its size however long a
// run lasts. Appended measures lie above every loaded one, so each
// appended row holds its cells' MAX and deleting it forces a MIN/MAX
// retraction.
const (
	mutateAppends  = 1
	mutateDeletes  = 1
	appendMeasBase = 1000
)

// mixSpec describes a workload's operation mix.
type mixSpec struct {
	attrs       []string
	mutateEvery int // 0 = read-only; else every mutateEvery-th op mutates
	gen         *rowGen
}

// lattice returns every group-by of attrs, ALL first, ranked for the Zipf
// draw by width and then attribute order.
func lattice(attrs []string) [][]string {
	n := len(attrs)
	byWidth := make([][][]string, n+1)
	for mask := 0; mask < 1<<n; mask++ {
		gb := []string{}
		for d := 0; d < n; d++ {
			if mask&(1<<d) != 0 {
				gb = append(gb, attrs[d])
			}
		}
		byWidth[len(gb)] = append(byWidth[len(gb)], gb)
	}
	var out [][]string
	for _, w := range byWidth {
		out = append(out, w...)
	}
	return out
}

// makeOps draws the workload's operation sequence from seed. The same seed
// always gives the same sequence.
func makeOps(seed int64, n int, mix mixSpec) []op {
	rng := rand.New(rand.NewSource(seed))
	gbs := lattice(mix.attrs)
	zipf := rand.NewZipf(rng, zipfS, zipfV, uint64(len(gbs)-1))
	ops := make([]op, n)
	for i := range ops {
		if mix.mutateEvery > 0 && i%mix.mutateEvery == mix.mutateEvery-1 {
			o := op{kind: opMutate, deletes: mutateDeletes}
			for k := 0; k < mutateAppends; k++ {
				o.appends = append(o.appends, httpserve.MutateRow{
					Values:  mix.gen.row(),
					Measure: float64(appendMeasBase + rng.Intn(100)),
				})
			}
			ops[i] = o
			continue
		}
		gb := gbs[zipf.Uint64()]
		ms := minSupports[rng.Intn(len(minSupports))]
		ops[i] = op{kind: opQuery, groupBy: gb, minSup: ms, url: queryPath(gb, ms)}
	}
	return ops
}

func queryPath(gb []string, minSup int64) string {
	u := "/v1/query?min_support=" + strconv.FormatInt(minSup, 10)
	if len(gb) > 0 {
		u += "&group_by=" + strings.Join(gb, ",")
	}
	return u
}
