package main

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/url"
	"sort"
	"strconv"

	"videodb/internal/core"
	"videodb/internal/server"
)

// kind is a read request's endpoint.
type kind uint8

const (
	kindTree    kind = iota // GET /api/clips/{name}/tree
	kindSimilar             // GET /api/similar?clip=&shot=&k=3
	kindList                // GET /api/clips
	kindQuery               // GET /api/query?varba=&varoa=&alpha=&beta=
	kindBatch               // POST /api/query/batch
	kindClip                // GET /api/clips/{name} (answer checking only)
)

var kindNames = [...]string{"tree", "similar", "list", "query", "batch", "clip"}

func (k kind) String() string { return kindNames[k] }

// query is one variance query point.
type query struct{ VarBA, VarOA float64 }

// request is one read of a workload's stream. Clip-scoped reads name
// their clip directly, or — on ingest-mixed, whose live set changes
// under the reads — carry a rank into the live set (0 = newest) that
// the sender resolves at send time, with the shot given as a fraction
// of that clip's shot count.
type request struct {
	kind     kind
	clip     string
	rank     int
	shot     int
	shotFrac float64
	k        int
	tol      float64 // α = β of query and batch reads
	qs       []query
}

// httpParts renders a resolved request.
func (r *request) httpParts() (method, path string, body []byte) {
	switch r.kind {
	case kindTree:
		return "GET", "/api/clips/" + url.PathEscape(r.clip) + "/tree", nil
	case kindClip:
		return "GET", "/api/clips/" + url.PathEscape(r.clip), nil
	case kindSimilar:
		v := url.Values{"clip": {r.clip}, "shot": {strconv.Itoa(r.shot)}, "k": {strconv.Itoa(r.k)}}
		return "GET", "/api/similar?" + v.Encode(), nil
	case kindList:
		return "GET", "/api/clips", nil
	case kindQuery:
		v := url.Values{
			"varba": {fmtFloat(r.qs[0].VarBA)}, "varoa": {fmtFloat(r.qs[0].VarOA)},
			"alpha": {fmtFloat(r.tol)}, "beta": {fmtFloat(r.tol)},
		}
		return "GET", "/api/query?" + v.Encode(), nil
	case kindBatch:
		req := server.BatchRequestJSON{Alpha: &r.tol, Beta: &r.tol}
		for i := range r.qs {
			req.Queries = append(req.Queries, server.BatchQueryJSON{VarBA: &r.qs[i].VarBA, VarOA: &r.qs[i].VarOA})
		}
		b, _ := json.Marshal(req) // plain structs of finite floats cannot fail
		return "POST", "/api/query/batch", b
	}
	panic("perfbench: unknown request kind")
}

// key identifies a resolved request for de-duplication before replay.
func (r *request) key() string {
	m, p, b := r.httpParts()
	return m + " " + p + " " + string(b)
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// zipf draws ranks 0..n-1 with P(k) ∝ 1/(k+1)^s by inverting the CDF.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for k := range n {
		sum += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	z.cdf[n-1] = 1
	return z
}

func (z *zipf) draw(r *rand.Rand) int {
	return sort.SearchFloat64s(z.cdf, r.Float64())
}

// catalog is what the stream generators know of the corpus: clip names,
// shot counts and the real shot features queries are drawn from.
type catalog struct {
	names []string
	feats [][]query // per clip, per shot
}

func newCatalog(db *core.Database) *catalog {
	c := &catalog{}
	for _, rec := range db.Records() {
		qs := make([]query, len(rec.Shots))
		for i, s := range rec.Shots {
			qs[i] = query{s.Feature.VarBA, s.Feature.VarOA}
		}
		c.names = append(c.names, rec.Name)
		c.feats = append(c.feats, qs)
	}
	return c
}

// Stream parameters shared by every workload. README.md ("Where the
// mixes come from") gives the basis of each.
const (
	popSkew     = 1.0  // Zipf exponent of clip and shot popularity
	poolSize    = 256  // query-wide's fixed pool of popular shots
	batchSize   = 16   // queries per POST /api/query/batch, as vdbbench's -batch
	narrowTol   = 0.1  // α = β of browse's narrow queries
	wideTol     = 1.0  // the paper's default α = β
	jitter      = 0.02 // relative jitter of browse query points
	similarK    = 3    // k of /api/similar
	liveRankMax = 11   // ingest-mixed reads target the newest half of the live set
)

// mix names a workload's request mix.
type mix uint8

const (
	mixBrowse mix = iota // scene trees, similar, listings, narrow queries
	mixWide              // vdbbench's server mix over pooled α=β=1 queries
	mixLive              // browse over the changing live set (ingest-mixed)
)

// streamGen produces one deterministic request stream.
type streamGen struct {
	r     *rand.Rand
	m     mix
	cat   *catalog
	perm  []int // clip popularity order
	clipZ *zipf
	pool  []query
	poolZ *zipf
	rankZ *zipf
	deck  []kind // kinds still to deal, see nextKind
}

// workloadSeed fixes the parts of every workload that define it rather
// than sample it: the clip popularity order and query-wide's pool of
// popular shots. Seeding them per run would make one run's popular clip
// the 242-shot commercials reel and another's a 36-shot music video, so
// runs would differ in the work they ask for, not just in its order.
const workloadSeed = 0x5eed

// newStreamGen seeds a generator: seed and stream select the draw
// sequence (which clip, shot, query point and request kind comes next),
// so every stream of one run (open loop, each closed-loop client) draws
// independently from the same fixed popularity order and pool.
func newStreamGen(m mix, cat *catalog, seed, stream uint64) *streamGen {
	base := rand.New(rand.NewPCG(workloadSeed, 0x9e3779b97f4a7c15))
	g := &streamGen{
		r:     rand.New(rand.NewPCG(seed, stream)),
		m:     m,
		cat:   cat,
		perm:  base.Perm(len(cat.names)),
		clipZ: newZipf(len(cat.names), popSkew),
		rankZ: newZipf(liveRankMax, popSkew),
	}
	if m == mixWide {
		g.poolZ = newZipf(poolSize, popSkew)
		for range poolSize {
			c := base.IntN(len(cat.feats))
			g.pool = append(g.pool, cat.feats[c][base.IntN(len(cat.feats[c]))])
		}
	}
	return g
}

// take returns the next n requests.
func (g *streamGen) take(n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// decks lists each mix's reads in their exact proportions: browse's
// four reads in equal shares, and vdbbench's server mix of eight single
// queries, one listing and one batch in ten.
var decks = [...][]kind{
	mixBrowse: {kindTree, kindSimilar, kindList, kindQuery},
	mixWide:   {kindQuery, kindQuery, kindQuery, kindQuery, kindQuery, kindQuery, kindQuery, kindQuery, kindList, kindBatch},
	mixLive:   {kindTree, kindSimilar, kindList, kindQuery},
}

// nextKind deals the kind of the next read from a shuffled copy of the
// mix's deck, so that every run asks for the same amount of each kind
// of work, in a seeded order.
func (g *streamGen) nextKind() kind {
	if len(g.deck) == 0 {
		g.deck = append(g.deck, decks[g.m]...)
		g.r.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
	}
	k := g.deck[len(g.deck)-1]
	g.deck = g.deck[:len(g.deck)-1]
	return k
}

func (g *streamGen) next() request {
	switch g.nextKind() {
	case kindTree:
		r := request{kind: kindTree}
		g.pickClip(&r)
		return r
	case kindSimilar:
		r := request{kind: kindSimilar, k: similarK}
		c := g.pickClip(&r)
		r.shotFrac = g.r.Float64()
		if c >= 0 {
			r.shot = int(r.shotFrac * float64(len(g.cat.feats[c])))
		}
		return r
	case kindList:
		return request{kind: kindList}
	case kindBatch:
		qs := make([]query, batchSize)
		for i := range qs {
			qs[i] = g.pool[g.poolZ.draw(g.r)]
		}
		return request{kind: kindBatch, tol: wideTol, qs: qs}
	}
	if g.m == mixWide {
		return request{kind: kindQuery, tol: wideTol, qs: []query{g.pool[g.poolZ.draw(g.r)]}}
	}
	c := g.perm[g.clipZ.draw(g.r)]
	f := g.cat.feats[c][g.r.IntN(len(g.cat.feats[c]))]
	q := query{f.VarBA * g.jitter(), f.VarOA * g.jitter()}
	return request{kind: kindQuery, tol: narrowTol, qs: []query{q}}
}

// pickClip sets r's clip (or, on the live mix, its live-set rank) and
// returns the catalog index of a directly named clip, else -1.
func (g *streamGen) pickClip(r *request) int {
	if g.m == mixLive {
		r.rank = g.rankZ.draw(g.r)
		return -1
	}
	c := g.perm[g.clipZ.draw(g.r)]
	r.clip = g.cat.names[c]
	return c
}

func (g *streamGen) jitter() float64 { return 1 + jitter*(2*g.r.Float64()-1) }
