package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sync"

	"videodb/internal/core"
	"videodb/internal/scenetree"
	"videodb/internal/server"
	"videodb/internal/varindex"
)

// expect computes the answer a single vdbserver holding db's clips
// must give to r, in the server's JSON shapes, straight from core.
// ok is false when r names a clip db does not hold.
func expect(db *core.Database, r *request) (v any, ok bool, err error) {
	switch r.kind {
	case kindList:
		var out []server.ClipSummary
		for _, rec := range db.Records() {
			out = append(out, summary(rec))
		}
		return out, true, nil
	case kindClip:
		rec, ok := db.Clip(r.clip)
		if !ok {
			return nil, false, nil
		}
		shots := make([]server.ShotJSON, len(rec.Shots))
		for i, sr := range rec.Shots {
			shots[i] = server.ShotJSON{
				Shot: i, Start: sr.Shot.Start, End: sr.Shot.End,
				VarBA: sr.Feature.VarBA, VarOA: sr.Feature.VarOA,
				Dv: sr.Feature.Dv(), RepFrame: sr.RepFrame,
			}
		}
		return struct {
			server.ClipSummary
			ShotTable []server.ShotJSON `json:"shotTable"`
		}{summary(rec), shots}, true, nil
	case kindTree:
		tree, err := db.Browse(r.clip)
		if err != nil {
			return nil, false, nil
		}
		return nodeJSON(tree.Root), true, nil
	case kindSimilar:
		if _, ok := db.Clip(r.clip); !ok {
			return nil, false, nil
		}
		ms, err := db.QueryByShot(r.clip, r.shot, r.k)
		return matchesJSON(ms), true, err
	case kindQuery:
		ms, err := db.QueryUncached(varindex.Query{VarBA: r.qs[0].VarBA, VarOA: r.qs[0].VarOA}, tolerance(db, r.tol))
		return matchesJSON(ms), true, err
	case kindBatch:
		res := server.BatchResponseJSON{Results: make([][]server.MatchJSON, len(r.qs))}
		for i, q := range r.qs {
			ms, err := db.QueryUncached(varindex.Query{VarBA: q.VarBA, VarOA: q.VarOA}, tolerance(db, r.tol))
			if err != nil {
				return nil, true, err
			}
			res.Results[i] = matchesJSON(ms)
		}
		return res, true, nil
	}
	return nil, false, fmt.Errorf("no oracle for %v", r.kind)
}

func tolerance(db *core.Database, tol float64) varindex.Options {
	opt := db.Options().Query
	opt.Alpha, opt.Beta = tol, tol
	return opt
}

func summary(rec *core.ClipRecord) server.ClipSummary {
	return server.ClipSummary{Name: rec.Name, Frames: rec.Frames, FPS: rec.FPS,
		Shots: len(rec.Shots), TreeHeight: rec.Tree.Height()}
}

func nodeJSON(n *scenetree.Node) server.NodeJSON {
	out := server.NodeJSON{Name: n.Name(), Shot: n.Shot, Level: n.Level, RepFrame: n.RepFrame}
	for _, c := range n.Children {
		out.Children = append(out.Children, nodeJSON(c))
	}
	return out
}

func matchesJSON(ms []core.Match) []server.MatchJSON {
	out := make([]server.MatchJSON, 0, len(ms))
	for _, m := range ms {
		mj := server.MatchJSON{
			Clip: m.Entry.Clip, Shot: m.Entry.Shot, Start: m.Entry.Start, End: m.Entry.End,
			VarBA: m.Entry.VarBA, VarOA: m.Entry.VarOA, Dv: m.Entry.Dv(),
		}
		if m.Scene != nil {
			mj.Scene = m.Scene.Name()
		}
		out = append(out, mj)
	}
	return out
}

// checkReport is the outcome of replaying reads against the oracle.
type checkReport struct {
	checked    int
	skipped    int // reads of clips no longer live (ingest-mixed)
	mismatches int
	first      string // description of the first mismatch
}

func (c *checkReport) fail(r *request, why string) {
	c.mismatches++
	if c.first == "" {
		m, p, _ := r.httpParts()
		c.first = m + " " + p + ": " + why
	}
}

// replay sends every request again, untimed, over conns connections and
// compares each decoded answer with the oracle's. Reads of clips db no
// longer holds are skipped.
func replay(ctx context.Context, client *http.Client, base string, db *core.Database, reqs []request, conns int) checkReport {
	var mu sync.Mutex
	var rep checkReport
	next := make(chan int)
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				r := &reqs[i]
				ok, why := checkOne(ctx, client, base, db, r)
				mu.Lock()
				switch {
				case !ok:
					rep.skipped++
				case why != "":
					rep.checked++
					rep.fail(r, why)
				default:
					rep.checked++
				}
				mu.Unlock()
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	return rep
}

// checkOne fetches one answer and compares it with the oracle's;
// held is false when the oracle does not hold the request's clip.
func checkOne(ctx context.Context, client *http.Client, base string, db *core.Database, r *request) (held bool, why string) {
	want, held, err := expect(db, r)
	if !held {
		return false, ""
	}
	if err != nil {
		return true, "oracle: " + err.Error()
	}
	method, path, body := r.httpParts()
	req, err := http.NewRequestWithContext(ctx, method, base+path, bytes.NewReader(body))
	if err != nil {
		return true, err.Error()
	}
	resp, err := client.Do(req)
	if err != nil {
		return true, err.Error()
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return true, err.Error()
	}
	if resp.StatusCode != http.StatusOK {
		return true, fmt.Sprintf("status %d: %.200s", resp.StatusCode, got)
	}
	if eq, err := jsonEqual(got, want); err != nil {
		return true, err.Error()
	} else if !eq {
		return true, fmt.Sprintf("answer differs from the oracle (%d bytes)", len(got))
	}
	return true, ""
}

// jsonEqual reports whether the JSON document got, decoded into want's
// type with unknown fields refused, equals want. Whitespace-insensitive
// byte equality with want's encoding implies that and is much cheaper
// than decoding, so it is tried first.
func jsonEqual(got []byte, want any) (bool, error) {
	wb, err := json.Marshal(want)
	if err != nil {
		return false, err
	}
	if compactEqual(got, wb) {
		return true, nil
	}
	g := reflect.New(reflect.TypeOf(want))
	dec := json.NewDecoder(bytes.NewReader(got))
	dec.DisallowUnknownFields()
	if err := dec.Decode(g.Interface()); err != nil {
		return false, fmt.Errorf("decoding answer: %w", err)
	}
	return reflect.DeepEqual(g.Elem().Interface(), want), nil
}

// compactEqual reports whether got, with the whitespace JSON allows
// between tokens removed, is byte-identical to the compact document
// want.
func compactEqual(got, want []byte) bool {
	j := 0
	inStr, esc := false, false
	for _, c := range got {
		if !inStr && (c == ' ' || c == '\n' || c == '\t' || c == '\r') {
			continue
		}
		if j >= len(want) || want[j] != c {
			return false
		}
		j++
		switch {
		case esc:
			esc = false
		case inStr && c == '\\':
			esc = true
		case c == '"':
			inStr = !inStr
		}
	}
	return j == len(want)
}
