package engine_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/diskfmt"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/workload"
)

// goldenIndexSHA256 pins the SaveMethod file of the three benchmarked
// layouts over tinyDataset, by method name, for the allSpecs override
// specs. The hashes were computed at the commit before the gob codecs were
// deleted, from the section codecs as they then stood: they fail when a
// change moves a byte of these formats, and with it index_mb and every
// mapped read. GGSX's was re-pinned once, when its direction-doubled trie
// gave way to pathkey's key directory (one posting per path and its
// reverse).
var goldenIndexSHA256 = map[string]string{
	"Grapes": "a9a7a1833b04aa1e1eb4f886fcfcbcbcddce602ec45f432a3d108639caca6932",
	"GGSX":   "a2f72e39e4991c01b0e67b91ce0ecd8ee087a442588070d34810d5860351e832",
	"gCode":  "764a1472ce0e9ab6485ce41e8d987abf01ebea0c37e139e262c222fb480afd03",
}

// TestSaveIsDeterministicEveryMethod: the file is a function of the index.
// Two saves of one index, and a save of what loading the first save gives
// back, are byte-identical for every method — under storage=mmap too where
// the method has it — and start with the container magic.
func TestSaveIsDeterministicEveryMethod(t *testing.T) {
	ctx := context.Background()
	ds := tinyDataset(t)
	for _, tc := range allSpecs {
		probe, err := engine.New(tc.def)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := probe.(core.Persistable); !ok {
			continue
		}
		specs := []string{tc.override}
		if _, ok := probe.(core.StorageSelector); ok {
			specs = append(specs, tc.override+",storage=mmap")
		}
		for _, spec := range specs {
			t.Run(spec, func(t *testing.T) {
				dir := t.TempDir()
				save := func(name string, m core.Method) []byte {
					t.Helper()
					path := filepath.Join(dir, name)
					if err := engine.SaveMethod(path, m); err != nil {
						t.Fatalf("SaveMethod: %v", err)
					}
					b, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					return b
				}
				built, err := engine.New(spec)
				if err != nil {
					t.Fatal(err)
				}
				if err := built.Build(ctx, ds); err != nil {
					t.Fatal(err)
				}
				first := save("first", built)
				if !diskfmt.IsMagic(first) {
					t.Fatalf("saved file does not start with the container magic")
				}
				if !bytes.Equal(first, save("second", built)) {
					t.Errorf("two saves of one index differ")
				}
				loaded, err := engine.New(spec)
				if err != nil {
					t.Fatal(err)
				}
				if err := engine.LoadMethod(filepath.Join(dir, "first"), loaded, ds); err != nil {
					t.Fatalf("LoadMethod: %v", err)
				}
				if !bytes.Equal(first, save("resaved", loaded)) {
					t.Errorf("save → load → save changed the file")
				}
				if want, ok := goldenIndexSHA256[built.Name()]; ok {
					if got := fmt.Sprintf("%x", sha256.Sum256(first)); got != want {
						t.Errorf("%s file hash %s, want the pinned %s: the on-disk layout moved", built.Name(), got, want)
					}
				}
			})
		}
	}
}

// FuzzLoadIndexEveryMethod fuzzes the method decoders behind a valid
// checksum, which container-level fuzzing never reaches: one section
// payload of a saved index is flipped, truncated or extended, the file is
// re-sealed through diskfmt.Writer so every CRC passes, and LoadIndex must
// then either refuse the file or return an index that answers queries
// without panicking (answers may be wrong — the CRC is what catches real
// damage; the decoders only have to stay in bounds). Indexes load with
// storage=heap, and Grapes, GGSX and gCode also with storage=mmap, where
// the load defers decoding to the queries.
func FuzzLoadIndexEveryMethod(f *testing.F) {
	ctx := context.Background()
	ds := gen.Synthetic(gen.SynthConfig{
		NumGraphs: 8, MeanNodes: 8, MeanDensity: 0.3, NumLabels: 3, Seed: 5,
	})
	queries, err := workload.Generate(ds, workload.Config{NumQueries: 3, QueryEdges: 3, Seed: 6})
	if err != nil {
		f.Fatal(err)
	}
	type target struct {
		spec     string
		ids      []uint32
		sections [][]byte
	}
	var targets []target
	for _, tc := range allSpecs {
		if tc.override == "" {
			continue // NoIndex has nothing to persist
		}
		m, err := engine.New(tc.override)
		if err != nil {
			f.Fatal(err)
		}
		if err := m.Build(ctx, ds); err != nil {
			f.Fatal(err)
		}
		w := diskfmt.NewWriter(0, 0, "")
		if err := m.(core.Persistable).SaveIndex(w); err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := w.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		r, err := diskfmt.FromBytes(buf.Bytes())
		if err != nil {
			f.Fatal(err)
		}
		tg := target{spec: tc.override}
		for id := uint32(0); id < 16; id++ { // every codec numbers its sections from 1, at most 6
			if r.Has(id) {
				sec, err := r.Section(id)
				if err != nil {
					f.Fatal(err)
				}
				tg.ids = append(tg.ids, id)
				tg.sections = append(tg.sections, sec)
			}
		}
		targets = append(targets, tg)
		if tc.def == "grapes" || tc.def == "GGSX" || tc.def == "gCode" {
			mapped := tg
			mapped.spec += ",storage=mmap"
			targets = append(targets, mapped)
		}
	}
	for t, tg := range targets {
		for s := range tg.ids {
			for op := range uint8(3) {
				f.Add(uint8(t), uint8(s), uint32(5), op, uint8(0x81))
			}
		}
	}

	f.Fuzz(func(t *testing.T, method, section uint8, off uint32, op, val uint8) {
		tg := targets[int(method)%len(targets)]
		hit := int(section) % len(tg.ids)
		w := diskfmt.NewWriter(0, 0, "")
		for i, id := range tg.ids {
			sec := bytes.Clone(tg.sections[i])
			if i == hit {
				switch at := int(off) % (len(sec) + 1); op % 3 {
				case 0: // flip
					if at < len(sec) {
						sec[at] ^= val | 1
					}
				case 1: // truncate
					sec = sec[:at]
				case 2: // extend
					sec = append(sec, bytes.Repeat([]byte{val}, 1+int(off)%16)...)
				}
			}
			w.AddSection(id, sec)
		}
		var buf bytes.Buffer
		if _, err := w.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		r, err := diskfmt.FromBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("re-sealed container does not parse: %v", err)
		}
		m, err := engine.New(tg.spec)
		if err != nil {
			t.Fatal(err)
		}
		if m.(core.Persistable).LoadIndex(r, ds) != nil {
			return
		}
		proc := core.Processor{Method: m, DS: ds, VerifyWorkers: 1}
		for _, q := range queries {
			proc.QueryCtx(ctx, q) // an error is fine; a panic is the finding
		}
	})
}
