package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"time"

	"bullion/internal/core"
	"bullion/internal/enc"
	"bullion/internal/legacy"
	"bullion/internal/sparse"
)

// probeTarget is what a workload hands the per-layer probes: one member
// of its dataset and the rows it was written from. The probes call single
// layers directly, with no storage and no dataset around them.
type probeTarget struct {
	member      string      // path of the member file
	batch       *core.Batch // the rows it holds
	columns     []string    // the workload's projection (empty: all)
	inplaceRows []uint64    // rows to erase in place, for the paper's deletion baseline
	legacy      bool        // also time the Parquet-style control file
}

// probeTime is how long each repeated probe runs.
const probeTime = 200 * time.Millisecond

// repeat calls fn until probeTime has passed, at least three times, and
// returns the milliseconds each call took.
func repeat(fn func() error) ([]float64, error) {
	var ms []float64
	for start := time.Now(); len(ms) < 3 || time.Since(start) < probeTime; {
		t := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		ms = append(ms, float64(time.Since(t))/1e6)
	}
	return ms, nil
}

func mbPerS(bytes int64, ms []float64) float64 {
	return float64(bytes) * float64(len(ms)) / 1e6 / (sum(ms) / 1e3)
}

func runProbes(t probeTarget, procs int, m map[string]float64) error {
	data, err := os.ReadFile(t.member)
	if err != nil {
		return err
	}
	size := int64(len(data))
	ms, err := repeat(func() error {
		_, err := core.ParseFooter(bytes.NewReader(data), size)
		return err
	})
	if err != nil {
		return err
	}
	m["core.footer_parse_ms"] = median(ms)

	var scanMS float64
	var rows int
	ms, err = repeat(func() error {
		f, err := core.Open(bytes.NewReader(data), size)
		if err != nil {
			return err
		}
		start := time.Now()
		sc, err := f.Scan(core.ScanOptions{Columns: t.columns, Workers: procs})
		if err != nil {
			return err
		}
		for {
			b, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			rows += b.NumRows()
		}
		scanMS += float64(time.Since(start)) / 1e6
		return nil
	})
	if err != nil {
		return err
	}
	m["core.open_project_ms"] = median(ms)
	m["core.scan_rows_per_s"] = float64(rows) / (scanMS / 1e3)

	if err := codecProbes(t.batch, m); err != nil {
		return err
	}
	if t.inplaceRows != nil {
		n, err := inplaceDeleteBytes(t.batch, t.inplaceRows)
		if err != nil {
			return err
		}
		m["core.inplace_delete_bytes"] = float64(n)
	}
	if t.legacy {
		ms, err := legacyOpenProject(t.batch, t.columns)
		if err != nil {
			return err
		}
		m["legacy.open_project_ms"] = median(ms)
		m["footer_speedup_vs_legacy"] = share(m["legacy.open_project_ms"], m["core.open_project_ms"])
	}
	return nil
}

// codecProbes times the integer cascade and the sparse codec on the first
// few columns of the batch that each applies to.
func codecProbes(batch *core.Batch, m map[string]float64) error {
	const sampleCols = 4
	var ints [][]int64
	var vectors [][][]int64
	for i, c := range batch.Columns {
		switch d := c.(type) {
		case core.Int64Data:
			ints = append(ints, d)
		case core.ListInt64Data:
			if batch.Schema.Fields[i].Sparse && len(vectors) < sampleCols {
				vectors = append(vectors, d)
				var flat []int64
				for _, v := range d {
					flat = append(flat, v...)
				}
				ints = append(ints, flat)
			}
		}
	}
	// rate runs fn repeatedly and stores the MB/s it achieved over raw
	// bytes of values under name.
	rate := func(name string, raw int64, fn func() error) error {
		ms, err := repeat(fn)
		if err != nil {
			return err
		}
		m[name] = mbPerS(raw, ms)
		return nil
	}

	var intBytes int64
	encoded := make([][]byte, len(ints))
	decoded := make([][]int64, len(ints))
	for i, vs := range ints {
		intBytes += 8 * int64(len(vs))
		decoded[i] = make([]int64, len(vs))
	}
	opts := enc.DefaultOptions()
	err := rate("enc.encode_mb_per_s", intBytes, func() (err error) {
		for i, vs := range ints {
			if encoded[i], err = enc.EncodeInts(encoded[i][:0], vs, opts); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	err = rate("enc.decode_mb_per_s", intBytes, func() error {
		for i := range ints {
			if _, err := enc.DecodeIntsInto(decoded[i], encoded[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	var vectorBytes int64
	for _, col := range vectors {
		for _, v := range col {
			vectorBytes += 8 * int64(len(v))
		}
	}
	sopts := sparse.DefaultOptions()
	packed := make([][]byte, len(vectors))
	err = rate("sparse.encode_mb_per_s", vectorBytes, func() (err error) {
		for i, col := range vectors {
			if packed[i], err = sparse.EncodeColumn(col, sopts); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return rate("sparse.decode_mb_per_s", vectorBytes, func() error {
		for _, p := range packed {
			if _, err := sparse.DecodeColumn(p); err != nil {
				return err
			}
		}
		return nil
	})
}

// memFile is a file in memory that counts the bytes written into it.
type memFile struct {
	data    []byte
	written int64
}

func (f *memFile) Write(p []byte) (int, error) {
	f.data = append(f.data, p...)
	return len(p), nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	return bytes.NewReader(f.data).ReadAt(p, off)
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > int64(len(f.data)) {
		return 0, fmt.Errorf("memFile: write of %d bytes at %d outside %d", len(p), off, len(f.data))
	}
	f.written += int64(len(p))
	return copy(f.data[off:], p), nil
}

// inplaceDeleteBytes is the paper's Level-2 deletion: write the member's
// rows as one file, erase rows in place, and count the bytes rewritten.
func inplaceDeleteBytes(batch *core.Batch, rows []uint64) (int64, error) {
	opts := writerOptions()
	opts.Compliance = core.Level2
	mf := &memFile{}
	w, err := core.NewWriter(mf, batch.Schema, opts)
	if err != nil {
		return 0, err
	}
	if err := w.Write(batch); err != nil {
		return 0, err
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	f, err := core.Open(mf, int64(len(mf.data)))
	if err != nil {
		return 0, err
	}
	if err := f.DeleteRows(mf, rows); err != nil {
		return 0, err
	}
	return mf.written, nil
}

// legacyOpenProject writes the batch's schema as a Parquet-style file
// (full footer deserialized on open) and times opening it and reading the
// projected columns. As in the wide table itself, metadata is the
// subject: every column holds a few small values.
func legacyOpenProject(batch *core.Batch, columns []string) ([]float64, error) {
	n := batch.NumRows()
	scalar := make([]int64, n)
	list := make([][]int64, n)
	for i := range list {
		scalar[i] = int64(i)
		list[i] = []int64{int64(i), 1, 2, 3}
	}
	fields := batch.Schema.Fields
	schema := make([]legacy.SchemaElement, len(fields))
	cols := make([]any, len(fields))
	for i, f := range fields {
		if f.Type.Kind == core.List && f.Type.Elem == core.Int64 {
			schema[i] = legacy.SchemaElement{Name: f.Name, Type: legacy.TypeListInt64}
			cols[i] = list
		} else {
			schema[i] = legacy.SchemaElement{Name: f.Name, Type: legacy.TypeInt64}
			cols[i] = scalar
		}
	}
	var buf bytes.Buffer
	if err := legacy.NewWriter(schema).WriteFile(&buf, cols, int64(n)); err != nil {
		return nil, err
	}
	data := buf.Bytes()
	return repeat(func() error {
		f, err := legacy.Open(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return err
		}
		for _, name := range columns {
			c, ok := f.LookupColumn(name)
			if !ok {
				return fmt.Errorf("legacy file has no column %q", name)
			}
			if f.Meta.Schema[c].Type == legacy.TypeListInt64 {
				_, err = f.ReadColumnListInt64(c)
			} else {
				_, err = f.ReadColumnInt64(c)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
}
