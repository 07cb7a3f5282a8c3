// Command bullion inspects and manipulates Bullion files and datasets.
//
// Usage:
//
//	bullion info [-json] <path>...       file/dataset stats, human or JSON (inspect = info)
//	bullion verify <file>                verify the Merkle checksum tree
//	bullion project <path> <col>...      print the first rows of columns
//	bullion scan [flags] <path>...       stream batches, report per-file + aggregate iostats
//	bullion ingest [flags] <path>...     write synthetic tables, report per-file + aggregate iostats
//	bullion compact [flags] <dir>...     fold deletion-heavy dataset members into fresh files
//	bullion fsck [flags] <dir>...        audit dataset integrity and crash debris
//	bullion tag [flags] <dir> [name]     list, create, or delete snapshot tags
//	bullion epochs [flags] <dir> [col].. stream shuffled training epochs, checkpoint/resume
//	bullion delete <path> <row>...       delete rows (file or dataset)
//	bullion demo <file>                  write a small demo ads file
//
// scan and ingest accept any number of paths; a path that is a directory
// is treated as a dataset (see bullion.OpenDataset). scan, project, info,
// and fsck also accept http(s):// dataset URLs, read through the
// resilient range-read backend; scan then reports the retry/hedge work
// and — with -degraded — the members it skipped as unreachable. Flags
// come before paths; for scan, positional arguments that do not name an
// existing path are treated as projected column names.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"bullion"
	"bullion/internal/iostats"
)

func main() {
	if len(os.Args) < 3 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "info", "inspect":
		err = info(args)
	case "verify":
		err = verify(args[0])
	case "project":
		err = project(args[0], args[1:])
	case "scan":
		err = scan(args)
	case "ingest":
		err = ingest(args)
	case "compact":
		err = compact(args)
	case "fsck":
		err = fsck(args)
	case "tag":
		err = tag(args)
	case "epochs":
		err = epochs(args)
	case "delete":
		err = deleteRows(args[0], args[1:])
	case "demo":
		err = demo(args[0])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bullion: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  bullion info [-json] <file|dir|url>...   # inspect is an alias
  bullion verify <file>
  bullion project <file|dir|url> <column>...
  bullion scan [-batch N] [-workers N] [-file-workers N] [-coalesce-gap N]
               [-degraded] [-json] [-filter-int col:lo:hi] [-filter-float col:lo:hi]
               [-filter-in col:v1,v2] <file|dir|url>... [column]...
  bullion ingest [-rows N] [-cols N] [-group N] [-workers N] [-shards N] [-no-cache] <file>... | <dir>
  bullion compact [-threshold R] [-vacuum] <dir>...
  bullion fsck [-json] [-deep] [-repair] <dir|url>...
  bullion tag <dir>                       # list tags
  bullion tag <dir> <name> [generation]   # tag a generation (default: current)
  bullion tag -delete <dir> <name>
  bullion epochs [-at tag|gen] [-seed N] [-epochs N] [-shard-rows N] [-batch N]
                 [-consumers N] [-rate ROWS/S] [-max-batches N]
                 [-checkpoint FILE] [-resume FILE] <dir> [column]...
  bullion delete <file|dir> <row>...
  bullion demo <file>`)
	os.Exit(2)
}

// isDir reports whether path exists and is a directory (a dataset).
func isDir(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}

// isRemote reports whether path is an http(s) dataset URL.
func isRemote(path string) bool {
	return strings.HasPrefix(path, "http://") || strings.HasPrefix(path, "https://")
}

// isDataset reports whether path should open via OpenDataset: a local
// directory or a remote dataset URL.
func isDataset(path string) bool { return isRemote(path) || isDir(path) }

// printJSON writes docs to stdout as one indented JSON document: the
// document itself when there is one, a list otherwise.
func printJSON[T any](docs []T) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if len(docs) == 1 {
		return enc.Encode(docs[0])
	}
	return enc.Encode(docs)
}

// sortedKeys returns m's keys in ascending order, so output that walks a
// map is the same run to run.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ---- info: file and dataset stats ----

// columnInfo is the per-column record `bullion info -json` emits — the
// same stats the dataset manifest builder lifts from footers, so external
// tooling can consume them without parsing human text.
type columnInfo struct {
	Name            string         `json:"name"`
	Type            string         `json:"type"`
	Sparse          bool           `json:"sparse,omitempty"`
	Nullable        bool           `json:"nullable,omitempty"`
	CompressedBytes uint64         `json:"compressed_bytes"`
	Pages           int            `json:"pages"`
	Encodings       map[string]int `json:"encodings"`
	HasMinMax       bool           `json:"has_min_max"`
	Min             *int64         `json:"min,omitempty"`
	Max             *int64         `json:"max,omitempty"`
	HasFloatMinMax  bool           `json:"has_float_min_max,omitempty"`
	FloatMin        *float64       `json:"float_min,omitempty"`
	FloatMax        *float64       `json:"float_max,omitempty"`
	// BloomBytes is the size of the column's file-level membership filter
	// (0 = none recorded).
	BloomBytes int    `json:"bloom_bytes,omitempty"`
	NullCount  uint64 `json:"null_count,omitempty"`
}

type fileInfo struct {
	Path        string       `json:"path"`
	FileBytes   int64        `json:"file_bytes"`
	DataBytes   uint64       `json:"data_bytes"`
	FooterBytes int          `json:"footer_bytes"`
	Rows        uint64       `json:"rows"`
	LiveRows    uint64       `json:"live_rows"`
	Groups      int          `json:"groups"`
	Pages       int          `json:"pages"`
	Compliance  int          `json:"compliance"`
	Columns     []columnInfo `json:"columns"`
}

type datasetInfo struct {
	Path       string                     `json:"path"`
	Generation uint64                     `json:"generation"`
	SchemaFP   string                     `json:"schema_fingerprint"`
	Rows       uint64                     `json:"rows"`
	LiveRows   uint64                     `json:"live_rows"`
	TotalBytes int64                      `json:"total_bytes"`
	Files      []bullion.DatasetFileEntry `json:"files"`
}

func fileInfoFor(path string) (*fileInfo, error) {
	f, err := bullion.OpenPath(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st := f.Stats()
	out := &fileInfo{
		Path:        path,
		FileBytes:   st.FileBytes,
		DataBytes:   st.DataBytes,
		FooterBytes: st.FooterBytes,
		Rows:        st.NumRows,
		LiveRows:    st.LiveRows,
		Groups:      st.NumGroups,
		Pages:       st.NumPages,
		Compliance:  int(st.Compliance),
	}
	for _, c := range st.Columns {
		ci := columnInfo{
			Name:            c.Name,
			Type:            c.Type.String(),
			Sparse:          c.Sparse,
			Nullable:        c.Nullable,
			CompressedBytes: c.CompressedBytes,
			Pages:           c.Pages,
			Encodings:       map[string]int{},
			HasMinMax:       c.HasMinMax,
			NullCount:       c.NullCount,
		}
		for id, n := range c.Encodings {
			name := id.String()
			if uint8(id) == 0 {
				name = "SparseDelta" // composite sliding-window pages
			}
			ci.Encodings[name] = n
		}
		if c.HasMinMax {
			mn, mx := c.Min, c.Max
			ci.Min, ci.Max = &mn, &mx
		}
		if c.HasFloatMinMax {
			ci.HasFloatMinMax = true
			// JSON cannot encode ±Inf; bounds are only emitted when finite.
			if fn, fx := c.FloatMin, c.FloatMax; !math.IsInf(fn, 0) && !math.IsInf(fx, 0) {
				ci.FloatMin, ci.FloatMax = &fn, &fx
			}
		}
		ci.BloomBytes = len(c.Bloom)
		out.Columns = append(out.Columns, ci)
	}
	return out, nil
}

func datasetInfoFor(path string) (*datasetInfo, error) {
	ds, err := bullion.OpenDataset(path, nil)
	if err != nil {
		return nil, err
	}
	defer ds.Close()
	m, err := ds.ManifestWithZones() // files[].columns come from the sidecars
	if err != nil {
		return nil, err
	}
	return &datasetInfo{
		Path:       path,
		Generation: m.Generation,
		SchemaFP:   m.SchemaFP,
		Rows:       ds.NumRows(),
		LiveRows:   ds.NumLiveRows(),
		TotalBytes: ds.TotalBytes(),
		Files:      m.Files,
	}, nil
}

// info prints per-path stats (for a file: summary sections, then one
// line per column); with -json it emits one JSON document (a list when
// more than one path is given). `inspect` is the same command.
func info(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	paths := fs.Args()
	if len(paths) == 0 {
		return fmt.Errorf("info: no paths given")
	}
	var docs []any
	for _, p := range paths {
		if isDataset(p) {
			di, err := datasetInfoFor(p)
			if err != nil {
				return err
			}
			docs = append(docs, di)
			continue
		}
		fi, err := fileInfoFor(p)
		if err != nil {
			return err
		}
		docs = append(docs, fi)
	}
	if *asJSON {
		return printJSON(docs)
	}
	for _, doc := range docs {
		switch d := doc.(type) {
		case *datasetInfo:
			fmt.Printf("%s: dataset generation %d, %d files, %d rows (%d live), %d bytes\n",
				d.Path, d.Generation, len(d.Files), d.Rows, d.LiveRows, d.TotalBytes)
			for _, e := range d.Files {
				fmt.Printf("  %-28s %10d rows %10d live %12d bytes\n", e.Name, e.Rows, e.LiveRows, e.Bytes)
			}
		case *fileInfo:
			printFileInfo(d)
		}
	}
	return nil
}

// printFileInfo is the human rendering of one file's info document: the
// summary sections first, then one line per column.
func printFileInfo(d *fileInfo) {
	fmt.Printf("%s: %d rows (%d live), %d columns, %d groups, %d pages, level %d\n",
		d.Path, d.Rows, d.LiveRows, len(d.Columns), d.Groups, d.Pages, d.Compliance)
	fmt.Printf("  data bytes: %d (footer %d)\n", d.DataBytes, d.FooterBytes)
	byType, byEncoding := map[string]int{}, map[string]int{}
	for _, c := range d.Columns {
		k := c.Type
		if c.Sparse {
			k += " (sparse)"
		}
		byType[k]++
		for name, n := range c.Encodings {
			byEncoding[name] += n
		}
	}
	fmt.Println("  type breakdown:")
	for _, k := range sortedKeys(byType) {
		fmt.Printf("    %-30s %6d\n", k, byType[k])
	}
	largest := append([]columnInfo(nil), d.Columns...)
	sort.SliceStable(largest, func(i, j int) bool {
		return largest[i].CompressedBytes > largest[j].CompressedBytes
	})
	fmt.Println("  largest columns:")
	for _, c := range largest[:min(5, len(largest))] {
		fmt.Printf("    %-30s %10d bytes  %4d pages\n", c.Name, c.CompressedBytes, c.Pages)
	}
	fmt.Println("  page encodings:")
	for _, name := range sortedKeys(byEncoding) {
		fmt.Printf("    %-20s %6d pages\n", name, byEncoding[name])
	}
	fmt.Println("  columns:")
	for _, c := range d.Columns {
		zone := "no zone map"
		switch {
		case c.HasMinMax:
			zone = fmt.Sprintf("min %d max %d", *c.Min, *c.Max)
		case c.HasFloatMinMax && c.FloatMin != nil:
			zone = fmt.Sprintf("min %g max %g", *c.FloatMin, *c.FloatMax)
		case c.HasFloatMinMax:
			zone = "float bounds (non-finite)"
		}
		if c.BloomBytes > 0 {
			zone += fmt.Sprintf(", bloom %dB", c.BloomBytes)
		}
		fmt.Printf("    %-28s %-16s %10d bytes %5d pages  %s\n",
			c.Name, c.Type, c.CompressedBytes, c.Pages, zone)
	}
}

func verify(path string) error {
	f, err := bullion.OpenPath(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.VerifyChecksums(); err != nil {
		return err
	}
	fmt.Println("checksums OK")
	return nil
}

// batchStream is one path — a file, a dataset directory or a dataset
// URL — opened as a stream of batches. reads counts the physical I/O of
// every file the stream opened, by name: the file itself, or each dataset
// member (a member pruned by the manifest is never opened and never
// appears).
type batchStream struct {
	sc interface {
		Next() (*bullion.Batch, error)
		Recycle(*bullion.Batch)
		Close() error
	}
	stats func() bullion.DatasetScanStats
	src   io.Closer // the file or dataset under sc

	mu    sync.Mutex
	reads map[string]*iostats.Counters
}

// openStream starts a scan of path. A single file reports itself as a
// one-member dataset with no resilience or cache work, and ignores
// FileConcurrency and Degraded.
func openStream(path string, opts bullion.DatasetScanOptions) (*batchStream, error) {
	s := &batchStream{reads: map[string]*iostats.Counters{}}
	count := func(name string, r io.ReaderAt, _ int64) io.ReaderAt {
		c := &iostats.Counters{}
		c.Reset()
		s.mu.Lock()
		s.reads[name] = c
		s.mu.Unlock()
		return &iostats.ReaderAt{R: r, C: c}
	}
	if isDataset(path) {
		ds, err := bullion.OpenDataset(path, &bullion.DatasetOptions{WrapReader: count})
		if err != nil {
			return nil, err
		}
		sc, err := ds.Scan(opts)
		if err != nil {
			ds.Close()
			return nil, err
		}
		s.sc, s.stats, s.src = sc, sc.Stats, ds
		return s, nil
	}
	osf, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := osf.Stat()
	if err != nil {
		osf.Close()
		return nil, err
	}
	f, err := bullion.Open(count(path, osf, st.Size()), st.Size())
	if err != nil {
		osf.Close()
		return nil, err
	}
	sc, err := f.Scan(opts.ScanOptions)
	if err != nil {
		osf.Close()
		return nil, err
	}
	s.sc, s.src = sc, osf
	s.stats = func() bullion.DatasetScanStats {
		return bullion.DatasetScanStats{ScanStats: sc.Stats(), FilesPlanned: 1, FilesScanned: 1}
	}
	return s, nil
}

// drain hands every batch to each (nil = just count them in stats) until
// the stream ends or each reports it has seen enough. Batches are
// recycled, so each must not keep one.
func (s *batchStream) drain(each func(*bullion.Batch) (more bool)) error {
	for {
		batch, err := s.sc.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		more := each == nil || each(batch)
		s.sc.Recycle(batch)
		if !more {
			return nil
		}
	}
}

func (s *batchStream) Close() {
	s.sc.Close()
	s.src.Close()
}

// project prints the first rows of the named columns.
func project(path string, cols []string) error {
	if len(cols) == 0 {
		return fmt.Errorf("project: no columns given")
	}
	s, err := openStream(path, bullion.DatasetScanOptions{
		ScanOptions: bullion.ScanOptions{Columns: cols},
	})
	if err != nil {
		return err
	}
	defer s.Close()
	left := 10
	return s.drain(func(batch *bullion.Batch) bool {
		for r := 0; r < batch.NumRows() && left > 0; r, left = r+1, left-1 {
			for c, col := range batch.Columns {
				fmt.Printf("%s=%v ", cols[c], cellString(col, r))
			}
			fmt.Println()
		}
		return left > 0
	})
}

func cellString(col bullion.ColumnData, r int) string {
	switch d := col.(type) {
	case bullion.Int64Data:
		return fmt.Sprint(d[r])
	case bullion.Float64Data:
		return fmt.Sprintf("%.4f", d[r])
	case bullion.Float32Data:
		return fmt.Sprintf("%.4f", d[r])
	case bullion.BoolData:
		return fmt.Sprint(d[r])
	case bullion.BytesData:
		return string(d[r])
	case bullion.ListInt64Data:
		if len(d[r]) > 6 {
			return fmt.Sprintf("%v... (%d)", d[r][:6], len(d[r]))
		}
		return fmt.Sprint(d[r])
	default:
		return fmt.Sprintf("%T", col)
	}
}

// repeatedFlag collects every occurrence of a repeatable flag.
type repeatedFlag []string

func (r *repeatedFlag) String() string { return strings.Join(*r, ",") }
func (r *repeatedFlag) Set(v string) error {
	*r = append(*r, v)
	return nil
}

// parseFilters turns the scan command's filter flags into ColumnFilters:
//
//	-filter-int   col:lo:hi   int64 range (empty lo/hi = open bound)
//	-filter-float col:lo:hi   float64 range (empty lo/hi = open bound)
//	-filter-in    col:v1,v2   byte-string membership
func parseFilters(ints, floats, ins repeatedFlag) ([]bullion.ColumnFilter, error) {
	var out []bullion.ColumnFilter
	for _, spec := range ints {
		parts := strings.SplitN(spec, ":", 3)
		if len(parts) != 3 || parts[0] == "" {
			return nil, fmt.Errorf("bad -filter-int %q (want col:lo:hi)", spec)
		}
		cf := bullion.ColumnFilter{Column: parts[0]}
		if parts[1] != "" {
			v, err := strconv.ParseInt(parts[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad -filter-int %q: %v", spec, err)
			}
			cf.Min = &v
		}
		if parts[2] != "" {
			v, err := strconv.ParseInt(parts[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad -filter-int %q: %v", spec, err)
			}
			cf.Max = &v
		}
		out = append(out, cf)
	}
	for _, spec := range floats {
		parts := strings.SplitN(spec, ":", 3)
		if len(parts) != 3 || parts[0] == "" {
			return nil, fmt.Errorf("bad -filter-float %q (want col:lo:hi)", spec)
		}
		cf := bullion.ColumnFilter{Column: parts[0]}
		if parts[1] != "" {
			v, err := strconv.ParseFloat(parts[1], 64)
			if err != nil {
				return nil, fmt.Errorf("bad -filter-float %q: %v", spec, err)
			}
			cf.FloatMin = &v
		}
		if parts[2] != "" {
			v, err := strconv.ParseFloat(parts[2], 64)
			if err != nil {
				return nil, fmt.Errorf("bad -filter-float %q: %v", spec, err)
			}
			cf.FloatMax = &v
		}
		out = append(out, cf)
	}
	for _, spec := range ins {
		parts := strings.SplitN(spec, ":", 2)
		if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
			return nil, fmt.Errorf("bad -filter-in %q (want col:v1,v2,...)", spec)
		}
		cf := bullion.ColumnFilter{Column: parts[0]}
		for _, v := range strings.Split(parts[1], ",") {
			cf.ValueIn = append(cf.ValueIn, []byte(v))
		}
		out = append(out, cf)
	}
	return out, nil
}

// scanResult is one path's scan outcome: a block of the text report, or
// with -json the document itself. Stats is the dataset-level shape for
// every target (see openStream), and every counter appears in it once —
// rows, batches, retries, hedges, degraded members and the cache deltas.
type scanResult struct {
	Path      string                   `json:"path"`
	ElapsedMS float64                  `json:"elapsed_ms"`
	Stats     bullion.DatasetScanStats `json:"stats"`
	ReadOps   int64                    `json:"phys_read_ops"`
	ReadBytes int64                    `json:"phys_read_bytes"`
	seeks     int64
}

// scan streams the projected columns (default: all) of every path —
// single files and dataset directories — and reports per-path and
// aggregate throughput plus physical I/O.
func scan(args []string) error {
	fs := flag.NewFlagSet("scan", flag.ExitOnError)
	batchRows := fs.Int("batch", bullion.DefaultScanBatchRows, "rows per batch")
	workers := fs.Int("workers", 0, "decode workers per file (0 = GOMAXPROCS)")
	fileWorkers := fs.Int("file-workers", 0, "dataset member files streamed concurrently (0 = GOMAXPROCS)")
	coalesceGap := fs.Int("coalesce-gap", 0,
		"cold bytes to read through when merging reads (0 = default, negative = none)")
	degraded := fs.Bool("degraded", false,
		"skip and report dataset members that stay unreachable after retries instead of failing")
	asJSON := fs.Bool("json", false, "emit one JSON document per path")
	var fInt, fFloat, fIn repeatedFlag
	fs.Var(&fInt, "filter-int", "int zone-map filter col:lo:hi (repeatable; empty bound = open)")
	fs.Var(&fFloat, "filter-float", "float zone-map filter col:lo:hi (repeatable; empty bound = open)")
	fs.Var(&fIn, "filter-in", "membership filter col:v1,v2,... (repeatable; prunes via bloom filters)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	filters, err := parseFilters(fInt, fFloat, fIn)
	if err != nil {
		return fmt.Errorf("scan: %w", err)
	}
	// Positional arguments that name an existing file or directory are
	// scan targets; the rest are projected column names. (The historical
	// CLI silently scanned only the first path.)
	var paths, cols []string
	for _, a := range fs.Args() {
		if _, err := os.Stat(a); err == nil || isRemote(a) {
			paths = append(paths, a)
		} else {
			cols = append(cols, a)
		}
	}
	if len(paths) == 0 {
		return fmt.Errorf("scan: no existing paths given")
	}

	opts := bullion.DatasetScanOptions{
		ScanOptions: bullion.ScanOptions{
			Columns:     cols,
			BatchRows:   *batchRows,
			Workers:     *workers,
			CoalesceGap: *coalesceGap,
			Filters:     filters,
		},
		FileConcurrency: *fileWorkers,
		Degraded:        *degraded,
	}
	var results []scanResult
	for _, path := range paths {
		res, err := scanPath(path, opts, *asJSON)
		if err != nil {
			return fmt.Errorf("scan %s: %w", path, err)
		}
		if !*asJSON {
			printScanResult(res)
		}
		results = append(results, res)
	}
	if len(results) > 1 {
		agg := scanResult{Path: fmt.Sprintf("TOTAL (%d paths)", len(results))}
		for _, r := range results {
			agg.ElapsedMS += r.ElapsedMS
			agg.Stats.Add(r.Stats)
			agg.ReadOps += r.ReadOps
			agg.ReadBytes += r.ReadBytes
			agg.seeks += r.seeks
		}
		if !*asJSON {
			printScanResult(agg)
		}
		results = append(results, agg)
	}
	if *asJSON {
		return printJSON(results)
	}
	return nil
}

func printScanResult(r scanResult) {
	st, secs := r.Stats, r.ElapsedMS/1e3
	fmt.Printf("%s: %d rows in %d batches in %v (%.0f rows/sec)\n",
		r.Path, st.RowsEmitted, st.BatchesEmitted, time.Duration(r.ElapsedMS*float64(time.Millisecond)),
		float64(st.RowsEmitted)/secs)
	fmt.Printf("  bytes decoded:  %d (%.1f MB/s)\n", st.BytesRead,
		float64(st.BytesRead)/secs/1e6)
	fmt.Printf("  physical I/O:   %d reads, %d bytes, %d seeks\n",
		r.ReadOps, r.ReadBytes, r.seeks)
	fmt.Printf("  coalescing:     %d scan reads, %d coalesced bytes, %d wasted gap bytes\n",
		st.ReadOps, st.CoalescedBytes, st.WastedBytes)
	fmt.Printf("  pages:          %d decoded, %d skipped; batches: %d emitted, %d skipped\n",
		st.PagesDecoded, st.PagesSkipped, st.BatchesEmitted, st.BatchesSkipped)
	if c := st.Cache; c.Any() {
		fmt.Printf("  cache:          footers %d hit/%d miss, handles %d/%d, pages %d/%d (%d evicted)\n",
			c.FooterHits, c.FooterMisses, c.HandleHits, c.HandleMisses,
			c.PageHits, c.PageMisses, c.PageEvictions)
	}
	if st.Retries > 0 || st.Hedges > 0 || len(st.DegradedMembers) > 0 {
		fmt.Printf("  resilience:     %d retries, %d hedges (%d won), %d degraded members\n",
			st.Retries, st.Hedges, st.HedgeWins, len(st.DegradedMembers))
		for _, name := range st.DegradedMembers {
			fmt.Printf("    degraded: %s (unreachable after retries; rows skipped)\n", name)
		}
	}
}

// scanPath drains one path and collects its stats and physical I/O. For
// a dataset it also lists (unless quiet) each member's reads, which is
// where manifest pruning shows: pruned members never appear.
func scanPath(path string, opts bullion.DatasetScanOptions, quiet bool) (scanResult, error) {
	s, err := openStream(path, opts)
	if err != nil {
		return scanResult{}, err
	}
	defer s.Close()

	res := scanResult{Path: path}
	start := time.Now()
	if err := s.drain(nil); err != nil {
		return scanResult{}, err
	}
	res.ElapsedMS = float64(time.Since(start).Microseconds()) / 1e3
	res.Stats = s.stats()

	listMembers := isDataset(path) && !quiet
	if listMembers {
		fmt.Printf("%s: %d member files scanned, %d pruned by manifest\n",
			path, res.Stats.FilesScanned, res.Stats.FilesPruned)
	}
	for _, name := range sortedKeys(s.reads) {
		snap := s.reads[name].Snapshot()
		if listMembers {
			fmt.Printf("  %-28s %6d reads %12d bytes\n", name, snap.ReadOps, snap.ReadBytes)
		}
		res.ReadOps += snap.ReadOps
		res.ReadBytes += snap.ReadBytes
		res.seeks += snap.Seeks
	}
	return res, nil
}

// ---- ingest ----

// ingest writes a synthetic widetable-style feature table, either across
// N file paths (round-robin batches, one pipelined writer per file) or —
// with -shards — into a dataset directory via the sharded writer. It
// reports per-file and aggregate throughput plus physical I/O.
func ingest(args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	rows := fs.Int("rows", 1<<20, "total rows to write")
	cols := fs.Int("cols", 64, "int64 feature columns")
	group := fs.Int("group", 1<<16, "rows per row group")
	workers := fs.Int("workers", 0, "encode workers per file (0 = GOMAXPROCS)")
	shards := fs.Int("shards", 0, "dataset mode: route across N member files of the dataset directory path")
	noCache := fs.Bool("no-cache", false, "disable the cascade selector cache (re-select per page)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	paths := fs.Args()
	if len(paths) == 0 {
		return fmt.Errorf("ingest: no paths given")
	}

	fields := make([]bullion.Field, *cols)
	for c := range fields {
		fields[c] = bullion.Field{Name: fmt.Sprintf("feat_%03d", c), Type: bullion.Type{Kind: bullion.Int64}}
	}
	schema, err := bullion.NewSchema(fields...)
	if err != nil {
		return err
	}
	opts := bullion.DefaultOptions()
	opts.GroupRows = *group
	opts.EncodeWorkers = *workers
	if *noCache {
		opts.Enc = bullion.DefaultEncodingOptions()
		opts.Enc.ResampleDrift = -1
	}
	batches, err := syntheticBatches(schema, *rows, *cols)
	if err != nil {
		return err
	}

	if *shards > 0 {
		if len(paths) != 1 {
			return fmt.Errorf("ingest: -shards takes exactly one dataset directory, got %d paths", len(paths))
		}
		return ingestDataset(paths[0], schema, opts, batches, *shards)
	}
	return ingestFiles(paths, schema, opts, batches)
}

// syntheticBatches pre-generates the ingest workload — a mix of
// narrow-range, clustered, and wide values so the cascade has real
// decisions to make — so the timed region measures the writer, not the
// rng.
func syntheticBatches(schema *bullion.Schema, rows, cols int) ([]*bullion.Batch, error) {
	const batchRows = 8192
	rng := rand.New(rand.NewSource(99))
	var out []*bullion.Batch
	for written := 0; written < rows; {
		n := batchRows
		if written+n > rows {
			n = rows - written
		}
		data := make([]bullion.ColumnData, cols)
		for c := range data {
			vals := make(bullion.Int64Data, n)
			switch c % 3 {
			case 0:
				for r := range vals {
					vals[r] = rng.Int63n(1 << 10)
				}
			case 1:
				for r := range vals {
					vals[r] = int64(written+r) / 8
				}
			default:
				for r := range vals {
					vals[r] = rng.Int63n(1 << 40)
				}
			}
			data[c] = vals
		}
		batch, err := bullion.NewBatch(schema, data)
		if err != nil {
			return nil, err
		}
		out = append(out, batch)
		written += n
	}
	return out, nil
}

// ingestFiles writes the batches round-robin across one pipelined writer
// per path, and syncs and closes every file before reporting.
func ingestFiles(paths []string, schema *bullion.Schema, opts *bullion.Options, batches []*bullion.Batch) error {
	type target struct {
		path     string
		osf      *os.File
		counters iostats.Counters
		w        *bullion.Writer
		rows     int64
	}
	targets := make([]*target, len(paths))
	for i, path := range paths {
		osf, err := os.Create(path)
		if err != nil {
			return err
		}
		defer osf.Close()
		tg := &target{path: path, osf: osf}
		tg.counters.Reset()
		w, err := bullion.NewWriter(&iostats.Writer{W: osf, C: &tg.counters}, schema, opts)
		if err != nil {
			return err
		}
		tg.w = w
		targets[i] = tg
	}

	start := time.Now()
	var total int64
	for i, batch := range batches {
		tg := targets[i%len(targets)]
		if err := tg.w.Write(batch); err != nil {
			return err
		}
		tg.rows += int64(batch.NumRows())
		total += int64(batch.NumRows())
	}
	var hits, resamples int64
	for _, tg := range targets {
		if err := tg.w.Close(); err != nil {
			return err
		}
		if err := tg.osf.Sync(); err != nil {
			return err
		}
		if err := tg.osf.Close(); err != nil {
			return err
		}
		h, r := tg.w.SelectorStats()
		hits += h
		resamples += r
	}
	elapsed := time.Since(start)

	var aggOps, aggBytes int64
	for _, tg := range targets {
		snap := tg.counters.Snapshot()
		fmt.Printf("%s: %d rows, %d writes, %d bytes\n", tg.path, tg.rows, snap.WriteOps, snap.WriteBytes)
		aggOps += snap.WriteOps
		aggBytes += snap.WriteBytes
	}
	fmt.Printf("ingested %d rows across %d files in %v\n", total, len(targets), elapsed.Round(time.Microsecond))
	fmt.Printf("throughput:     %.0f rows/sec (%.1f MB/s encoded)\n",
		float64(total)/elapsed.Seconds(), float64(aggBytes)/elapsed.Seconds()/1e6)
	fmt.Printf("physical I/O:   %d writes, %d bytes\n", aggOps, aggBytes)
	printSelector(hits, resamples)
	return nil
}

// ingestDataset routes the batches across a dataset's sharded writer.
func ingestDataset(dir string, schema *bullion.Schema, opts *bullion.Options, batches []*bullion.Batch, shards int) error {
	ds, err := bullion.OpenDataset(dir, &bullion.DatasetOptions{Writer: opts})
	if err != nil {
		ds2, cerr := bullion.CreateDataset(dir, schema, &bullion.DatasetOptions{Writer: opts})
		if cerr != nil {
			return fmt.Errorf("open: %v; create: %w", err, cerr)
		}
		ds = ds2
	}
	defer ds.Close()
	if ds.Schema().Fingerprint() != schema.Fingerprint() {
		return fmt.Errorf("ingest: dataset %s has a different schema (fingerprint %s)", dir, ds.Schema().Fingerprint())
	}

	existing := map[string]bool{}
	for _, e := range ds.Manifest().Files {
		existing[e.Name] = true
	}
	sw, err := ds.ShardedWriter(shards)
	if err != nil {
		return err
	}
	start := time.Now()
	var total int64
	for _, batch := range batches {
		if err := sw.Write(batch); err != nil {
			return err
		}
		total += int64(batch.NumRows())
	}
	if err := sw.Close(); err != nil {
		return err
	}
	elapsed := time.Since(start)

	// The commit adds only the shards that received rows.
	m := ds.Manifest()
	added := 0
	for _, e := range m.Files {
		if !existing[e.Name] {
			fmt.Printf("%s/%s: %d rows, %d bytes\n", dir, e.Name, e.Rows, e.Bytes)
			added++
		}
	}
	fmt.Printf("ingested %d rows, new files: %d (generation %d) in %v\n",
		total, added, m.Generation, elapsed.Round(time.Microsecond))
	fmt.Printf("throughput:     %.0f rows/sec\n", float64(total)/elapsed.Seconds())
	return nil
}

func printSelector(hits, resamples int64) {
	fmt.Printf("selector cache: %d reused, %d sampled", hits, resamples)
	if total := hits + resamples; total > 0 {
		fmt.Printf(" (%.1f%% amortized)", 100*float64(hits)/float64(total))
	}
	fmt.Println()
}

// compact folds deletion-heavy members of each dataset into fresh files.
func compact(args []string) error {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	threshold := fs.Float64("threshold", 0.5, "compact members with live-row ratio below this")
	vacuum := fs.Bool("vacuum", false, "remove superseded files after compacting (unsafe with concurrent readers)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	dirs := fs.Args()
	if len(dirs) == 0 {
		return fmt.Errorf("compact: no dataset directories given")
	}
	for _, dir := range dirs {
		ds, err := bullion.OpenDataset(dir, nil)
		if err != nil {
			return err
		}
		stats, err := ds.Compact(*threshold)
		if err != nil {
			ds.Close()
			return err
		}
		fmt.Printf("%s: %d files compacted, %d dropped, %d deleted rows reclaimed, %d -> %d bytes (generation %d)\n",
			dir, stats.FilesCompacted, stats.FilesDropped, stats.RowsReclaimed,
			stats.BytesBefore, stats.BytesAfter, ds.Generation())
		if *vacuum {
			rep, err := ds.Vacuum()
			if err != nil {
				ds.Close()
				return err
			}
			fmt.Printf("  vacuumed %d files\n", len(rep.Removed))
		}
		ds.Close()
	}
	return nil
}

// fsck audits each dataset directory — manifest integrity, member
// sizes/fingerprints/row counts, live rows against each entry's deletion
// bitmap, and orphaned crash debris — without mutating it. With -repair
// it first reopens the dataset (sweeping temporary debris) and vacuums
// unreferenced files, then audits the result. Exits non-zero if any
// directory fails its audit.
func fsck(args []string) error {
	fs := flag.NewFlagSet("fsck", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit JSON reports")
	deep := fs.Bool("deep", false, "verify every member's Merkle checksum tree")
	repair := fs.Bool("repair", false, "sweep temporary debris and vacuum unreferenced files first (unsafe with concurrent readers)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	dirs := fs.Args()
	if len(dirs) == 0 {
		return fmt.Errorf("fsck: no dataset directories given")
	}
	var reports []*bullion.FsckReport
	bad := 0
	for _, dir := range dirs {
		if *repair {
			if isRemote(dir) {
				return fmt.Errorf("fsck: -repair requires a local dataset, %s is remote (read-only)", dir)
			}
			ds, err := bullion.OpenDataset(dir, nil) // Open sweeps *.tmp debris
			if err != nil {
				return fmt.Errorf("fsck: repair %s: %w", dir, err)
			}
			vac, err := ds.Vacuum()
			ds.Close()
			if err != nil {
				return fmt.Errorf("fsck: vacuum %s: %w", dir, err)
			}
			if !*asJSON && len(vac.Removed) > 0 {
				fmt.Printf("%s: repair reclaimed %d files\n", dir, len(vac.Removed))
			}
		}
		rep, err := bullion.FsckDataset(dir, nil, *deep)
		if err != nil {
			return fmt.Errorf("fsck %s: %w", dir, err)
		}
		reports = append(reports, rep)
		if !rep.OK() {
			bad++
		}
	}
	if *asJSON {
		if err := printJSON(reports); err != nil {
			return err
		}
	} else {
		for _, rep := range reports {
			printFsckReport(rep)
		}
	}
	if bad > 0 {
		return fmt.Errorf("fsck: %d of %d datasets failed", bad, len(reports))
	}
	return nil
}

func printFsckReport(rep *bullion.FsckReport) {
	status := "OK"
	if !rep.OK() {
		status = "CORRUPT"
	}
	fmt.Printf("%s: %s — generation %d, %d files, %d rows (%d live)\n",
		rep.Dir, status, rep.Generation, rep.Files, rep.Rows, rep.LiveRows)
	for _, m := range rep.Members {
		if len(m.Errors) == 0 {
			continue
		}
		for _, e := range m.Errors {
			fmt.Printf("  member %s: ERROR %s\n", m.Name, e)
		}
	}
	for _, e := range rep.Errors {
		fmt.Printf("  ERROR %s\n", e)
	}
	for _, w := range rep.Warnings {
		fmt.Printf("  warning: %s\n", w)
	}
	if n := len(rep.OrphanTmps); n > 0 {
		fmt.Printf("  %d temporary files from interrupted operations (swept on next open)\n", n)
	}
	if n := len(rep.OrphanParts); n > 0 {
		fmt.Printf("  %d unreferenced part files (reclaimable via vacuum)\n", n)
	}
	if n := len(rep.OrphanSidecars); n > 0 {
		fmt.Printf("  %d unreferenced schema and statistics files (reclaimable via vacuum)\n", n)
	}
	if n := len(rep.OrphanManifests); n > 0 {
		fmt.Printf("  %d superseded manifests (reclaimable via vacuum)\n", n)
	}
	for _, rg := range rep.Retained {
		fmt.Printf("  retained generation %d (tags %s): %d files, %d rows\n",
			rg.Generation, strings.Join(rg.Tags, ","), rg.Files, rg.Rows)
		for _, m := range rg.Missing {
			fmt.Printf("    MISSING %s\n", m)
		}
	}
}

// tag lists, creates, or deletes a dataset's snapshot tags. Creating a
// tag is an ordinary manifest commit; tagged generations are retained by
// Vacuum until untagged.
func tag(args []string) error {
	fs := flag.NewFlagSet("tag", flag.ExitOnError)
	del := fs.Bool("delete", false, "delete the named tag instead of creating it")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return fmt.Errorf("tag: no dataset directory given")
	}
	ds, err := bullion.OpenDataset(rest[0], nil)
	if err != nil {
		return err
	}
	defer ds.Close()

	switch {
	case len(rest) == 1: // list
		if *del {
			return fmt.Errorf("tag: -delete needs a tag name")
		}
		tags := ds.Tags()
		names := sortedKeys(tags)
		for _, name := range names {
			fmt.Printf("%-32s generation %d\n", name, tags[name])
		}
		if len(names) == 0 {
			fmt.Printf("%s: no tags (current generation %d)\n", rest[0], ds.Generation())
		}
		return nil
	case *del:
		if len(rest) != 2 {
			return fmt.Errorf("tag: -delete takes <dir> <name>")
		}
		if err := ds.Untag(rest[1]); err != nil {
			return err
		}
		fmt.Printf("deleted tag %s (generation %d); vacuum reclaims the files\n", rest[1], ds.Generation())
		return nil
	default:
		var gen uint64
		if len(rest) == 3 {
			if gen, err = strconv.ParseUint(rest[2], 10, 64); err != nil {
				return fmt.Errorf("tag: bad generation %q", rest[2])
			}
		} else if len(rest) != 2 {
			return fmt.Errorf("tag: want <dir> <name> [generation]")
		}
		if err := ds.Tag(rest[1], gen); err != nil {
			return err
		}
		fmt.Printf("tagged %s -> generation %d (commit %d)\n", rest[1], ds.Tags()[rest[1]], ds.Generation())
		return nil
	}
}

// epochs streams shuffled training epochs over a dataset (or a tagged
// snapshot of one), optionally checkpointing the cursor to a file and
// resuming from one — the CLI face of the training loader.
func epochs(args []string) error {
	fs := flag.NewFlagSet("epochs", flag.ExitOnError)
	at := fs.String("at", "", "open this tag or generation instead of the live dataset")
	seed := fs.Int64("seed", 0, "shuffle seed")
	nEpochs := fs.Int("epochs", 1, "passes over the dataset")
	shardRows := fs.Int("shard-rows", 0, "shuffle granule in rows (0 = default)")
	batchRows := fs.Int("batch", 0, "rows per emitted batch (0 = scanner default)")
	consumers := fs.Int("consumers", 1, "parallel consumers fed via Feed")
	rate := fs.Float64("rate", 0, "target feed rate in rows/sec (0 = unpaced)")
	maxBatches := fs.Int("max-batches", 0, "stop after N batches (0 = stream to the end)")
	ckPath := fs.String("checkpoint", "", "write the final cursor to this JSON file")
	resume := fs.String("resume", "", "resume from a checkpoint JSON file written by -checkpoint")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return fmt.Errorf("epochs: no dataset directory given")
	}
	dir, cols := rest[0], rest[1:]

	var ck bullion.LoaderCheckpoint
	if *resume != "" {
		data, err := os.ReadFile(*resume)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &ck); err != nil {
			return fmt.Errorf("epochs: bad checkpoint %s: %w", *resume, err)
		}
		if *at == "" {
			// The checkpoint pins the generation; open it directly.
			*at = strconv.FormatUint(ck.Generation, 10)
		}
	}

	var ds *bullion.Dataset
	var err error
	if *at != "" {
		ds, err = bullion.OpenDatasetAt(dir, *at, nil)
	} else {
		ds, err = bullion.OpenDataset(dir, nil)
	}
	if err != nil {
		return err
	}
	defer ds.Close()

	opts := bullion.LoaderOptions{
		Columns:          cols,
		ShardRows:        *shardRows,
		Seed:             *seed,
		Epochs:           *nEpochs,
		BatchRows:        *batchRows,
		TargetRowsPerSec: *rate,
	}
	var ld *bullion.Loader
	if *resume != "" {
		ld, err = bullion.ResumeLoader(ds, ck, opts)
	} else {
		ld, err = bullion.NewLoader(ds, opts)
	}
	if err != nil {
		return err
	}
	defer ld.Close()

	start := time.Now()
	var rows, batches int64
	if *maxBatches > 0 || *consumers <= 1 {
		// Single-consumer iteration; -max-batches needs the caller-driven
		// loop to stop at an exact batch boundary for the checkpoint.
		for *maxBatches == 0 || batches < int64(*maxBatches) {
			b, err := ld.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			rows += int64(b.NumRows())
			batches++
		}
	} else {
		var mu sync.Mutex
		err = ld.Feed(*consumers, func(_ int, b *bullion.Batch) error {
			mu.Lock()
			rows += int64(b.NumRows())
			batches++
			mu.Unlock()
			return nil
		})
		if err != nil {
			return err
		}
	}
	elapsed := time.Since(start)

	st := ld.Stats()
	fmt.Printf("%s: generation %d, %d shards/epoch, epoch %d\n",
		dir, st.Generation, st.EpochShards, st.Epoch)
	fmt.Printf("  streamed:  %d rows in %d batches in %v (%.0f rows/sec)\n",
		rows, batches, elapsed.Round(time.Microsecond), float64(rows)/elapsed.Seconds())
	fmt.Printf("  plan cost: %v (manifest only, zero data reads)\n", st.PlanTime.Round(time.Microsecond))

	if *ckPath != "" {
		cur := ld.Checkpoint()
		data, err := json.MarshalIndent(cur, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*ckPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("  checkpoint: %s (epoch %d, shard %d, batch %d)\n",
			*ckPath, cur.Epoch, cur.Shard, cur.Batch)
	}
	return nil
}

func deleteRows(path string, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("delete: no rows given")
	}
	rows := make([]uint64, len(args))
	for i, a := range args {
		v, err := strconv.ParseUint(a, 10, 64)
		if err != nil {
			return fmt.Errorf("delete: bad row %q", a)
		}
		rows[i] = v
	}
	if isDataset(path) {
		ds, err := bullion.OpenDataset(path, nil)
		if err != nil {
			return err
		}
		defer ds.Close()
		if err := ds.Delete(rows); err != nil {
			return err
		}
		fmt.Printf("deleted %d rows (generation %d); %d live rows remain\n",
			len(rows), ds.Generation(), ds.NumLiveRows())
		return nil
	}
	f, err := bullion.OpenPath(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.DeleteRows(rows); err != nil {
		return err
	}
	fmt.Printf("deleted %d rows (level %d); %d live rows remain\n",
		len(rows), f.Compliance(), f.NumLiveRows())
	return nil
}

func demo(path string) error {
	schema, err := bullion.NewSchema(
		bullion.Field{Name: "uid", Type: bullion.Type{Kind: bullion.Int64}},
		bullion.Field{Name: "clk_seq_cids",
			Type: bullion.Type{Kind: bullion.List, Elem: bullion.Int64}, Sparse: true},
		bullion.Field{Name: "ctr", Type: bullion.Type{Kind: bullion.Float64}},
	)
	if err != nil {
		return err
	}
	n := 10000
	rng := rand.New(rand.NewSource(1))
	uid := make(bullion.Int64Data, n)
	clk := make(bullion.ListInt64Data, n)
	ctr := make(bullion.Float64Data, n)
	window := make([]int64, 32)
	for i := range window {
		window[i] = rng.Int63n(1 << 30)
	}
	for i := 0; i < n; i++ {
		uid[i] = int64(i / 20)
		if rng.Intn(3) == 0 {
			window = append([]int64{rng.Int63n(1 << 30)}, window[:len(window)-1]...)
		}
		clk[i] = append([]int64{}, window...)
		ctr[i] = rng.Float64()
	}
	batch, err := bullion.NewBatch(schema, []bullion.ColumnData{uid, clk, ctr})
	if err != nil {
		return err
	}
	w, err := bullion.Create(path, schema, nil)
	if err != nil {
		return err
	}
	if err := w.Write(batch); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d rows to %s\n", n, path)
	return nil
}
