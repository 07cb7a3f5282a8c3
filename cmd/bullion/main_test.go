package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bullion"
)

// captureStdout runs fn with os.Stdout redirected to a file and returns
// what it printed (the commands print with fmt.Printf).
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := os.Stdout
	os.Stdout = tmp
	err = fn()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// libraryView reads path through the library: its live row count and the
// lines `project` should print for cols (the first rows of a scan).
func libraryView(t *testing.T, path string, cols []string) (live int64, firstRows string) {
	t.Helper()
	f, err := bullion.OpenPath(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc, err := f.Scan(bullion.ScanOptions{Columns: cols, BatchRows: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	var sb strings.Builder
	for rows := 0; rows < 10; {
		batch, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < batch.NumRows() && rows < 10; r, rows = r+1, rows+1 {
			for c, col := range batch.Columns {
				fmt.Fprintf(&sb, "%s=%v ", cols[c], cellString(col, r))
			}
			sb.WriteByte('\n')
		}
	}
	return int64(f.NumLiveRows()), sb.String()
}

// TestFileLifecycle drives demo → project → scan → delete → scan on one
// file and checks every step against the library's own view of it.
func TestFileLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ads.bln")
	cols := []string{"uid", "ctr", "clk_seq_cids"}
	// Rows 0-24 take out the first user (20 rows) and the head of the
	// second, so the first rows `project` prints change.
	var gone []string
	for r := 0; r < 25; r++ {
		gone = append(gone, fmt.Sprint(r))
	}

	scanRows := func(t *testing.T, out string) int64 {
		var doc scanResult
		if err := json.Unmarshal([]byte(out), &doc); err != nil {
			t.Fatalf("scan -json output: %v\n%s", err, out)
		}
		return doc.Stats.RowsEmitted
	}
	for _, step := range []struct {
		name     string
		run      func() error
		wantLive int64
		check    func(t *testing.T, out, firstRows string)
	}{
		{"demo", func() error { return demo(path) }, 10000, nil},
		{"project", func() error { return project(path, cols) }, 10000,
			func(t *testing.T, out, firstRows string) {
				if out != firstRows {
					t.Errorf("project printed\n%s\nscan's first rows are\n%s", out, firstRows)
				}
			}},
		{"scan", func() error { return scan([]string{"-json", "-batch", "1000", path}) }, 10000,
			func(t *testing.T, out, _ string) {
				if got := scanRows(t, out); got != 10000 {
					t.Errorf("scan emitted %d rows, want 10000", got)
				}
			}},
		{"delete", func() error { return deleteRows(path, gone) }, 9975,
			func(t *testing.T, out, _ string) {
				if !strings.Contains(out, "9975 live rows remain") {
					t.Errorf("delete printed %q", out)
				}
			}},
		{"scan after delete", func() error { return scan([]string{"-json", path, "uid"}) }, 9975,
			func(t *testing.T, out, _ string) {
				if got := scanRows(t, out); got != 9975 {
					t.Errorf("scan emitted %d rows, want 9975", got)
				}
			}},
		{"project after delete", func() error { return project(path, cols) }, 9975,
			func(t *testing.T, out, firstRows string) {
				if out != firstRows || !strings.HasPrefix(out, "uid=1 ") {
					t.Errorf("project printed\n%s\nscan's first rows are\n%s", out, firstRows)
				}
			}},
	} {
		t.Run(step.name, func(t *testing.T) {
			out := captureStdout(t, step.run)
			live, firstRows := libraryView(t, path, cols)
			if live != step.wantLive {
				t.Fatalf("%d live rows, want %d", live, step.wantLive)
			}
			if step.check != nil {
				step.check(t, out, firstRows)
			}
		})
	}
}

// oneMemberDataset copies every row of the file at path into a fresh
// dataset with a single member and returns its directory.
func oneMemberDataset(t *testing.T, path string) string {
	t.Helper()
	f, err := bullion.OpenPath(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	schema := f.Schema()
	var names []string
	for _, fd := range schema.Fields {
		names = append(names, fd.Name)
	}
	batch, err := f.Project(names...)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "ads.blnds")
	ds, err := bullion.CreateDataset(dir, schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if err := ds.Append(batch); err != nil {
		t.Fatal(err)
	}
	return dir
}

// datasetRows renders every row of the dataset at dir — or of its
// snapshot ref, when ref is not empty — one string per row, through the
// library.
func datasetRows(t *testing.T, dir, ref string) []string {
	t.Helper()
	var ds *bullion.Dataset
	var err error
	if ref != "" {
		ds, err = bullion.OpenDatasetAt(dir, ref, nil)
	} else {
		ds, err = bullion.OpenDataset(dir, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	sc, err := ds.Scan(bullion.DatasetScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	var rows []string
	for {
		batch, err := sc.Next()
		if err == io.EOF {
			return rows
		}
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < batch.NumRows(); r++ {
			var sb strings.Builder
			for _, col := range batch.Columns {
				fmt.Fprintf(&sb, "%s|", cellString(col, r))
			}
			rows = append(rows, sb.String())
		}
	}
}

// partFiles returns the contents of the dataset's member files by name.
func partFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "part-*"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(name)] = string(data)
	}
	return out
}

// TestDatasetLifecycle drives the mutating verbs over one dataset —
// ingest -shards 2 → delete → fsck -json -deep → tag → compact -vacuum →
// scan -json → ingest -shards 4 — and checks each step against the
// library's view of it.
func TestDatasetLifecycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	// 20,000 rows in batches of 8192 route to two shards: 11,808 and 8,192
	// rows. The deletes push both members under the 0.99 live ratio.
	captureStdout(t, func() error {
		return ingest([]string{"-rows", "20000", "-cols", "3", "-shards", "2", dir})
	})
	written := datasetRows(t, dir, "")
	if len(written) != 20000 {
		t.Fatalf("ingest wrote %d rows, want 20000", len(written))
	}
	// The manifest head names each member's statistics sidecar; info -json
	// still renders the zones inline, read from the sidecars.
	infoOut := captureStdout(t, func() error { return info([]string{"-json", dir}) })
	var infoDoc struct {
		Files []bullion.DatasetFileEntry `json:"files"`
	}
	if err := json.Unmarshal([]byte(infoOut), &infoDoc); err != nil {
		t.Fatalf("info -json output: %v\n%s", err, infoOut)
	}
	if len(infoDoc.Files) != 2 {
		t.Fatalf("info -json lists %d files, want 2", len(infoDoc.Files))
	}
	for _, e := range infoDoc.Files {
		if e.Stats == "" || len(e.Columns) == 0 {
			t.Fatalf("info -json file %s: statistics %q, %d column zones", e.Name, e.Stats, len(e.Columns))
		}
	}

	var args []string
	gone := map[int]bool{}
	for _, span := range [][2]int{{0, 200}, {11800, 11909}} {
		for r := span[0]; r < span[1]; r++ {
			args = append(args, fmt.Sprint(r))
			gone[r] = true
		}
	}
	var want []string
	for i, row := range written {
		if !gone[i] {
			want = append(want, row)
		}
	}
	checkRows := func(t *testing.T, step string, got []string) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %d rows, want the %d written rows minus the deleted ones", step, len(got), len(want))
		}
	}

	members := partFiles(t, dir)
	out := captureStdout(t, func() error { return deleteRows(dir, args) })
	if !strings.Contains(out, fmt.Sprintf("%d live rows remain", len(want))) {
		t.Fatalf("delete printed %q", out)
	}
	if !reflect.DeepEqual(partFiles(t, dir), members) {
		t.Fatal("delete rewrote member files")
	}
	checkRows(t, "after delete", datasetRows(t, dir, ""))

	out = captureStdout(t, func() error { return fsck([]string{"-json", "-deep", dir}) })
	var rep bullion.FsckReport
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("fsck -json output: %v\n%s", err, out)
	}
	if !rep.OK() || len(rep.Warnings) > 0 || rep.LiveRows != uint64(len(want)) {
		t.Fatalf("fsck: ok %v, warnings %v, %d live rows (want %d)", rep.OK(), rep.Warnings, rep.LiveRows, len(want))
	}
	if strings.Contains(out, "disk_live_rows") {
		t.Fatalf("fsck -json reports a disk_live_rows key:\n%s", out)
	}

	captureStdout(t, func() error { return tag([]string{dir, "pre-compact"}) })
	out = captureStdout(t, func() error { return compact([]string{"-threshold", "0.99", "-vacuum", dir}) })
	if !strings.Contains(out, "2 files compacted") || !strings.Contains(out, fmt.Sprintf("%d deleted rows reclaimed", len(gone))) {
		t.Fatalf("compact printed %q", out)
	}
	checkRows(t, "after compact", datasetRows(t, dir, ""))
	checkRows(t, "tagged snapshot after vacuum", datasetRows(t, dir, "pre-compact"))

	out = captureStdout(t, func() error { return scan([]string{"-json", dir}) })
	var doc scanResult
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("scan -json output: %v\n%s", err, out)
	}
	if doc.Stats.RowsEmitted != int64(len(want)) || doc.Stats.FilesScanned != 2 {
		t.Fatalf("scan emitted %d rows from %d files, want %d from 2",
			doc.Stats.RowsEmitted, doc.Stats.FilesScanned, len(want))
	}

	// A second ingest into the existing dataset lists only what its commit
	// added: one 8,192-row batch fills one of the four shards.
	members = partFiles(t, dir)
	out = captureStdout(t, func() error {
		return ingest([]string{"-rows", "8192", "-cols", "3", "-shards", "4", dir})
	})
	var added []string
	for name := range partFiles(t, dir) {
		if _, ok := members[name]; !ok {
			added = append(added, name)
		}
	}
	if len(added) != 1 || strings.Count(out, " bytes\n") != 1 ||
		!strings.Contains(out, "/"+added[0]+": 8192 rows, ") || !strings.Contains(out, "new files: 1 ") {
		t.Fatalf("second ingest added %v and printed %q", added, out)
	}
}

// keySet collects the key paths of a decoded JSON document.
func keySet(prefix string, v any, out map[string]bool) {
	if m, ok := v.(map[string]any); ok {
		for k, sub := range m {
			out[prefix+k] = true
			keySet(prefix+k+".", sub, out)
		}
	}
}

// TestOneReadPath runs the read commands over a demo file and over a
// one-member dataset holding the same rows: both go through openStream,
// so they must report the same document shape and the same logical work.
func TestOneReadPath(t *testing.T) {
	file := filepath.Join(t.TempDir(), "ads.bln")
	captureStdout(t, func() error { return demo(file) })
	dir := oneMemberDataset(t, file)
	_, firstRows := libraryView(t, file, []string{"uid", "ctr"})

	scanDoc := func(t *testing.T, path string) (scanResult, map[string]bool) {
		out := captureStdout(t, func() error { return scan([]string{"-json", "-batch", "1000", path}) })
		var doc scanResult
		var raw any
		if err := json.Unmarshal([]byte(out), &doc); err != nil {
			t.Fatalf("scan -json %s: %v\n%s", path, err, out)
		}
		if err := json.Unmarshal([]byte(out), &raw); err != nil {
			t.Fatal(err)
		}
		keys := map[string]bool{}
		keySet("", raw, keys)
		return doc, keys
	}
	for _, tc := range []struct {
		name  string
		check func(t *testing.T)
	}{
		{"scan -json file vs dataset", func(t *testing.T) {
			fdoc, fkeys := scanDoc(t, file)
			ddoc, dkeys := scanDoc(t, dir)
			if !reflect.DeepEqual(fkeys, dkeys) {
				t.Errorf("key sets differ:\nfile    %v\ndataset %v", fkeys, dkeys)
			}
			fs, ds := fdoc.Stats, ddoc.Stats
			if fs.RowsEmitted != 10000 || fs.RowsEmitted != ds.RowsEmitted ||
				fs.BatchesEmitted != ds.BatchesEmitted || fs.PagesDecoded != ds.PagesDecoded {
				t.Errorf("file rows/batches/pages %d/%d/%d, dataset %d/%d/%d",
					fs.RowsEmitted, fs.BatchesEmitted, fs.PagesDecoded,
					ds.RowsEmitted, ds.BatchesEmitted, ds.PagesDecoded)
			}
			if fs.FilesScanned != 1 || ds.FilesScanned != 1 {
				t.Errorf("files scanned: file %d, dataset %d, want 1 and 1", fs.FilesScanned, ds.FilesScanned)
			}
		}},
		{"scan -json says each thing once", func(t *testing.T) {
			_, keys := scanDoc(t, file)
			for _, dup := range []string{"rows", "batches", "retries", "hedges", "hedge_wins", "degraded_members", "cache"} {
				if keys[dup] {
					t.Errorf("top-level %q repeats a stats counter", dup)
				}
			}
		}},
		{"project dataset", func(t *testing.T) {
			out := captureStdout(t, func() error { return project(dir, []string{"uid", "ctr"}) })
			if out != firstRows || strings.Count(out, "\n") != 10 {
				t.Errorf("project %s printed\n%s\nthe file's first rows are\n%s", dir, out, firstRows)
			}
		}},
		{"info is deterministic", func(t *testing.T) {
			first := captureStdout(t, func() error { return info([]string{file}) })
			for i := 0; i < 5; i++ {
				if again := captureStdout(t, func() error { return info([]string{file}) }); again != first {
					t.Fatalf("info output changed between runs:\n%s\n---\n%s", first, again)
				}
			}
			for _, section := range []string{"type breakdown:", "largest columns:", "page encodings:", "SparseDelta"} {
				if !strings.Contains(first, section) {
					t.Errorf("info output lacks %q:\n%s", section, first)
				}
			}
		}},
	} {
		t.Run(tc.name, tc.check)
	}
}

// streamed parses the row and batch totals `epochs` prints.
func streamed(t *testing.T, out string) (rows, batches int) {
	t.Helper()
	i := strings.Index(out, "streamed:")
	if i < 0 {
		t.Fatalf("epochs printed no totals:\n%s", out)
	}
	if _, err := fmt.Sscanf(out[i:], "streamed: %d rows in %d batches", &rows, &batches); err != nil {
		t.Fatalf("epochs totals: %v\n%s", err, out)
	}
	return rows, batches
}

// TestEpochsResumeAndTag drives `epochs` over a dataset: a run cut short
// by -max-batches and resumed from its checkpoint streams what one
// uninterrupted run streams, and -at streams a tagged generation after a
// later ingest.
func TestEpochsResumeAndTag(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	captureStdout(t, func() error {
		return ingest([]string{"-rows", "5000", "-cols", "2", "-shards", "2", dir})
	})
	captureStdout(t, func() error { return tag([]string{dir, "first"}) })
	run := func(args ...string) (rows, batches int) {
		t.Helper()
		return streamed(t, captureStdout(t, func() error { return epochs(append(args, dir)) }))
	}
	loop := []string{"-seed", "7", "-epochs", "2", "-shard-rows", "700", "-batch", "100"}

	fullRows, fullBatches := run(loop...)
	if fullRows != 2*5000 {
		t.Fatalf("two epochs streamed %d rows, want %d", fullRows, 2*5000)
	}
	// Stop mid-way through the first epoch, then resume to the end.
	ck := filepath.Join(t.TempDir(), "ck.json")
	cutRows, cutBatches := run(append(loop, "-max-batches", "37", "-checkpoint", ck)...)
	if cutBatches != 37 {
		t.Fatalf("-max-batches 37 streamed %d batches", cutBatches)
	}
	restRows, restBatches := run("-resume", ck)
	if cutRows+restRows != fullRows || cutBatches+restBatches != fullBatches {
		t.Fatalf("cut + resumed streamed %d+%d rows in %d+%d batches; one run streams %d rows in %d batches",
			cutRows, restRows, cutBatches, restBatches, fullRows, fullBatches)
	}

	// A later ingest grows the live dataset; the tag keeps serving the
	// generation it named.
	captureStdout(t, func() error {
		return ingest([]string{"-rows", "3000", "-cols", "2", "-shards", "2", dir})
	})
	if rows, _ := run("-at", "first"); rows != 5000 {
		t.Fatalf("-at first streamed %d rows, want the tagged 5000", rows)
	}
	if rows, _ := run(); rows != 8000 {
		t.Fatalf("live dataset streamed %d rows, want 8000", rows)
	}
}
