package main

import (
	"bytes"
	"math"
	"math/rand/v2"
	"strconv"
	"testing"
)

// testCatalog is a small fixed corpus description.
func testCatalog() *catalog {
	c := &catalog{}
	for i := range 22 {
		c.names = append(c.names, "clip "+strconv.Itoa(i))
		var qs []query
		for k := range 10 + i {
			qs = append(qs, query{VarBA: float64(100 + 7*k + i), VarOA: float64(10 + k)})
		}
		c.feats = append(c.feats, qs)
	}
	return c
}

// render describes a stream, one line per request, live ranks included.
func render(rs []request) []byte {
	var b bytes.Buffer
	for i := range rs {
		if rs[i].clip == "" && (rs[i].kind == kindTree || rs[i].kind == kindSimilar) {
			b.WriteString(rs[i].kind.String() + " rank " + strconv.Itoa(rs[i].rank) + " " + fmtFloat(rs[i].shotFrac))
		} else {
			b.WriteString(rs[i].key())
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestSameSeedSameStream(t *testing.T) {
	cat := testCatalog()
	for _, m := range []mix{mixBrowse, mixWide, mixLive} {
		a := render(newStreamGen(m, cat, 7, 1).take(2000))
		b := render(newStreamGen(m, cat, 7, 1).take(2000))
		if !bytes.Equal(a, b) {
			t.Errorf("mix %d: seed 7 produced two different streams", m)
		}
		if c := render(newStreamGen(m, cat, 8, 1).take(2000)); bytes.Equal(a, c) {
			t.Errorf("mix %d: seeds 7 and 8 produced the same stream", m)
		}
		if c := render(newStreamGen(m, cat, 7, 2).take(2000)); bytes.Equal(a, c) {
			t.Errorf("mix %d: streams 1 and 2 of seed 7 are the same", m)
		}
	}
}

func TestStreamMix(t *testing.T) {
	cat := testCatalog()
	count := func(m mix) map[kind]int {
		n := map[kind]int{}
		for _, r := range newStreamGen(m, cat, 3, 1).take(10000) {
			n[r.kind]++
		}
		return n
	}
	wide := count(mixWide)
	if wide[kindBatch] != 1000 || wide[kindList] != 1000 || wide[kindQuery] != 8000 {
		t.Errorf("wide mix: %v, want exactly 1 batch and 1 listing in 10, the rest queries", wide)
	}
	browse := count(mixBrowse)
	for _, k := range []kind{kindTree, kindSimilar, kindList, kindQuery} {
		if browse[k] != 2500 {
			t.Errorf("browse mix: %d %v reads of 10000, want 2500", browse[k], k)
		}
	}
	// Browse queries are jittered, so none repeat.
	seen := map[string]bool{}
	for _, r := range newStreamGen(mixBrowse, cat, 3, 1).take(10000) {
		if r.kind == kindQuery {
			if seen[r.key()] {
				t.Fatalf("browse query repeated: %s", r.key())
			}
			seen[r.key()] = true
		}
	}
}

func TestZipfSkew(t *testing.T) {
	const n, draws = 22, 200000
	z := newZipf(n, popSkew)
	r := rand.New(rand.NewPCG(1, 2))
	freq := make([]int, n)
	for range draws {
		freq[z.draw(r)]++
	}
	// P(k) ∝ 1/(k+1)^s: each rank's share against rank 0's.
	for k := 1; k < 6; k++ {
		want := math.Pow(float64(k+1), -popSkew)
		got := float64(freq[k]) / float64(freq[0])
		if math.Abs(got-want) > 0.05*want+0.005 {
			t.Errorf("rank %d: frequency ratio %.4f, want %.4f", k, got, want)
		}
	}
	for k := 1; k < n; k++ {
		if freq[k] > freq[k-1]+draws/200 {
			t.Errorf("rank %d drawn %d times, more than rank %d (%d)", k, freq[k], k-1, freq[k-1])
		}
	}
	if freq[n-1] == 0 {
		t.Error("last rank never drawn")
	}
}
