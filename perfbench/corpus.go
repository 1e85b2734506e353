package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"videodb/internal/core"
	"videodb/internal/experiments"
	"videodb/internal/store"
	"videodb/internal/video"
)

// corpusScale is the Table 5 scale of the benchmark corpus: 22 clips,
// 13,368 frames, 960 shots.
const corpusScale = 0.25

// corpusVersion names the cached corpus; bump it when the corpus
// definition changes so stale caches are rebuilt.
const corpusVersion = "table5-0.25-v1"

// corpusClip is one clip of the corpus as the benchmark uploads it: a
// VDBF file in the cache, read from disk at each upload so the load
// generator never holds the whole corpus in memory.
type corpusClip struct {
	Name   string `json:"name"`
	File   string `json:"file"`
	Frames int    `json:"frames"`
	Bytes  int64  `json:"bytes"`
}

// corpus is the synthesized Table 5 corpus, cached as VDBF files.
type corpus struct {
	dir    string
	clips  []corpusClip
	frames int
}

func (c *corpus) path(i int) string { return filepath.Join(c.dir, c.clips[i].File) }

// loadCorpus returns the VDBF corpus cached under cacheDir, synthesizing
// it on first use. Synthesis is deterministic, so the cache is an
// optimization only; it is written to a temporary directory and renamed
// into place so an interrupted first run leaves no partial corpus.
func loadCorpus(cacheDir string) (*corpus, error) {
	dir := filepath.Join(cacheDir, "corpus-"+corpusVersion)
	if c, err := readCorpus(dir); err == nil {
		return c, nil
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	var clips []corpusClip
	for i, d := range experiments.Table5Corpus() {
		clip, _, err := d.Build(corpusScale)
		if err != nil {
			return nil, fmt.Errorf("synthesizing %q: %w", d.Name, err)
		}
		cc := corpusClip{Name: d.Name, File: fmt.Sprintf("%02d.vdbf", i), Frames: clip.Len()}
		if cc.Bytes, err = writeVDBF(filepath.Join(tmp, cc.File), clip); err != nil {
			return nil, err
		}
		clips = append(clips, cc)
	}
	man, err := json.MarshalIndent(clips, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(tmp, "manifest.json"), man, 0o644); err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return nil, err
	}
	return readCorpus(dir)
}

// writeVDBF encodes clip to path and returns the file's size.
func writeVDBF(path string, clip *video.Clip) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := store.WriteClip(bw, clip); err != nil {
		f.Close()
		return 0, fmt.Errorf("encoding %q: %w", clip.Name, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, err
	}
	return st.Size(), f.Close()
}

func readCorpus(dir string) (*corpus, error) {
	man, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	c := &corpus{dir: dir}
	if err := json.Unmarshal(man, &c.clips); err != nil {
		return nil, fmt.Errorf("corpus manifest: %w", err)
	}
	if len(c.clips) == 0 {
		return nil, fmt.Errorf("corpus manifest lists no clips")
	}
	for i, cc := range c.clips {
		st, err := os.Stat(c.path(i))
		if err != nil {
			return nil, err
		}
		if st.Size() != cc.Bytes {
			return nil, fmt.Errorf("corpus file %s: %d bytes, manifest says %d", cc.File, st.Size(), cc.Bytes)
		}
		c.frames += cc.Frames
	}
	return c, nil
}

// oracle is the in-process reference the benchmark checks every HTTP
// answer against: a core database holding the corpus exactly as this
// build's core.Database.Ingest analyzes it, plus each clip's record
// payload so renamed copies (ingest-mixed) and shard subsets (the
// traced cluster rungs) can be assembled without re-analysis.
type oracle struct {
	db       *core.Database
	payloads map[string][]byte
}

type oracleRecord struct {
	Name    string
	Payload []byte
}

// loadOracle returns the oracle for the corpus. The first run of a
// build ingests every clip in process (store.ReadClip + Ingest) and
// caches the resulting record payloads under a key derived from the
// benchmark executable's hash, so a rebuilt benchmark never trusts a
// record another build produced.
func loadOracle(c *corpus, cacheDir string) (*oracle, error) {
	key, err := executableKey()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(cacheDir, "oracle-"+key+".gob")
	var recs []oracleRecord
	if f, err := os.Open(path); err == nil {
		err = gob.NewDecoder(bufio.NewReader(f)).Decode(&recs)
		f.Close()
		if err != nil || len(recs) != len(c.clips) {
			recs = nil
		}
	}
	if recs == nil {
		if recs, err = ingestRecords(c); err != nil {
			return nil, err
		}
		if err := writeOracleCache(cacheDir, path, recs); err != nil {
			return nil, err
		}
	}
	o := &oracle{payloads: make(map[string][]byte, len(recs))}
	if o.db, err = core.Open(core.DefaultOptions()); err != nil {
		return nil, err
	}
	for _, r := range recs {
		if _, err := o.db.ApplyIngestRecord(r.Payload); err != nil {
			return nil, fmt.Errorf("oracle record %q: %w", r.Name, err)
		}
		o.payloads[r.Name] = r.Payload
	}
	return o, nil
}

// ingestRecords analyzes every corpus clip in process and returns the
// canonical record payloads.
func ingestRecords(c *corpus) ([]oracleRecord, error) {
	db, err := core.Open(core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	recs := make([]oracleRecord, 0, len(c.clips))
	for i := range c.clips {
		clip, err := readClipFile(c.path(i))
		if err != nil {
			return nil, err
		}
		rec, err := db.Ingest(clip)
		if err != nil {
			return nil, fmt.Errorf("oracle ingest %q: %w", clip.Name, err)
		}
		p, err := core.EncodeClipRecord(rec)
		if err != nil {
			return nil, err
		}
		recs = append(recs, oracleRecord{Name: rec.Name, Payload: p})
	}
	return recs, nil
}

func readClipFile(path string) (*video.Clip, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	clip, err := store.ReadClip(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return clip, nil
}

func writeOracleCache(cacheDir, path string, recs []oracleRecord) error {
	old, _ := filepath.Glob(filepath.Join(cacheDir, "oracle-*.gob"))
	for _, p := range old {
		_ = os.Remove(p) // stale entries of other builds; best effort
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(recs); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// executableKey hashes the running benchmark binary.
func executableKey() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// renamedPayload re-encodes the record of clip orig under a new name:
// the record a server holds after ingesting orig's frames as ?name=to.
func (o *oracle) renamedPayload(orig, to string) ([]byte, error) {
	rec, ok := o.db.Clip(orig)
	if !ok {
		return nil, fmt.Errorf("oracle has no clip %q", orig)
	}
	cp := *rec
	cp.Name = to
	return core.EncodeClipRecord(&cp)
}

// baseName strips the generation suffix ingest-mixed appends to a
// re-posted clip's name.
func baseName(name string) string {
	if i := strings.LastIndex(name, genSep); i >= 0 {
		return name[:i]
	}
	return name
}
