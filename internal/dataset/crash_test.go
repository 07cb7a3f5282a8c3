package dataset

import (
	"errors"
	"fmt"
	"io"
	"testing"

	"bullion/internal/core"
	"bullion/internal/storage"
)

// shadowRow / shadowModel mirror the dataset's global row space in plain
// Go: the crash matrix replays every mutation against this model and then
// checks each reopened crash state against it.
type shadowRow struct {
	key int64
	del bool
}

type shadowModel struct {
	members [][]shadowRow
}

// addSharded mirrors ShardedWriter routing: batch i goes to shard i%n,
// and the non-empty shards are appended as new members in shard order.
func (s *shadowModel) addSharded(batches [][]int64, n int) {
	shards := make([][]shadowRow, n)
	for i, keys := range batches {
		for _, k := range keys {
			shards[i%n] = append(shards[i%n], shadowRow{key: k})
		}
	}
	for _, rows := range shards {
		if len(rows) > 0 {
			s.members = append(s.members, rows)
		}
	}
}

// applyDelete marks the given dataset-global rows (indexed over all rows,
// deleted included, in member order).
func (s *shadowModel) applyDelete(rows []uint64) {
	for _, r := range rows {
		idx := r
		for mi := range s.members {
			if idx < uint64(len(s.members[mi])) {
				s.members[mi][idx].del = true
				break
			}
			idx -= uint64(len(s.members[mi]))
		}
	}
}

// compact mirrors Dataset.Compact: members under the live-ratio threshold
// are replaced in place by their live rows (or dropped when empty).
func (s *shadowModel) compact(threshold float64) {
	var out [][]shadowRow
	for _, m := range s.members {
		live := 0
		for _, r := range m {
			if !r.del {
				live++
			}
		}
		if live == len(m) || float64(live)/float64(len(m)) >= threshold {
			out = append(out, m)
			continue
		}
		if live == 0 {
			continue
		}
		kept := make([]shadowRow, 0, live)
		for _, r := range m {
			if !r.del {
				kept = append(kept, r)
			}
		}
		out = append(out, kept)
	}
	s.members = out
}

func (s *shadowModel) liveKeys() []int64 {
	var out []int64
	for _, m := range s.members {
		for _, r := range m {
			if !r.del {
				out = append(out, r.key)
			}
		}
	}
	return out
}

type commitRec struct {
	gen  uint64
	ops  int
	live []int64
}

// spanRows returns [lo, hi) as global row ids.
func spanRows(lo, hi uint64) []uint64 {
	out := make([]uint64, 0, hi-lo)
	for r := lo; r < hi; r++ {
		out = append(out, r)
	}
	return out
}

// tagRec records the workload's tag commit: which generation the tag
// pins and that generation's live keys at tag time.
type tagRec struct {
	name string
	gen  uint64
	live []int64
}

// crashWorkload drives every mutation kind through fb once — sharded
// ingest, append, tag, delete, compact, vacuum — recording the shadow
// state and op count at each successful commit.
func crashWorkload(t *testing.T, fb *storage.Fault) ([]commitRec, tagRec) {
	t.Helper()
	opts := &Options{Backend: fb}
	sh := &shadowModel{}
	var commits []commitRec
	record := func(d *Dataset) {
		commits = append(commits, commitRec{gen: d.Generation(), ops: fb.OpCount(), live: sh.liveKeys()})
	}

	d, err := Create("crashds", testSchema(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	record(d) // generation 1: empty

	// Sharded ingest: 2 shards, 4 batches of 40 rows, keys [0,160).
	sw, err := d.ShardedWriter(2)
	if err != nil {
		t.Fatal(err)
	}
	var batches [][]int64
	for i := 0; i < 4; i++ {
		if err := sw.Write(keyBatch(t, d.Schema(), i*40, 40)); err != nil {
			t.Fatal(err)
		}
		batches = append(batches, wantKeys(int64(i*40), int64(i*40+40)))
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	sh.addSharded(batches, 2)
	record(d) // generation 2

	// Append keys [200,250).
	if err := d.Append(keyBatch(t, d.Schema(), 200, 50)); err != nil {
		t.Fatal(err)
	}
	sh.addSharded([][]int64{wantKeys(200, 250)}, 1)
	record(d) // generation 3

	// Tag the pre-delete state: the tag commit is a generation like any
	// other, and the later compact + vacuum must retain generation 3's
	// files at every crash point where the tag is durable.
	tag := tagRec{name: "ckpt", gen: d.Generation(), live: sh.liveKeys()}
	if err := d.Tag(tag.name, 0); err != nil {
		t.Fatal(err)
	}
	record(d) // generation 4: tag commit

	// Delete rows spanning two members.
	rows := append(spanRows(5, 25), spanRows(175, 185)...)
	sh.applyDelete(rows)
	if err := d.Delete(rows); err != nil {
		t.Fatal(err)
	}
	record(d) // generation 5

	// Compact everything holding deletions.
	if _, err := d.Compact(0.999); err != nil {
		t.Fatal(err)
	}
	sh.compact(0.999)
	record(d) // generation 6

	if _, err := d.Vacuum(); err != nil {
		t.Fatal(err)
	}

	// Append keys [300,340).
	if err := d.Append(keyBatch(t, d.Schema(), 300, 40)); err != nil {
		t.Fatal(err)
	}
	sh.addSharded([][]int64{wantKeys(300, 340)}, 1)
	record(d) // generation 7

	// A second delete over the compacted layout.
	rows = spanRows(0, 10)
	sh.applyDelete(rows)
	if err := d.Delete(rows); err != nil {
		t.Fatal(err)
	}
	record(d) // generation 8

	return commits, tag
}

// scanKeyVals drains a key+val scan, verifying the val column's integrity
// (keyBatch writes val = key/2) and returning the keys.
func scanKeyVals(d *Dataset) ([]int64, error) {
	sc, err := d.Scan(ScanOptions{ScanOptions: core.ScanOptions{Columns: []string{"key", "val"}}})
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	var keys []int64
	for {
		b, err := sc.Next()
		if err == io.EOF {
			return keys, nil
		}
		if err != nil {
			return nil, err
		}
		ks := b.Columns[0].(core.Int64Data)
		vs := b.Columns[1].(core.Float64Data)
		for i, k := range ks {
			if vs[i] != float64(k)/2 {
				return nil, fmt.Errorf("key %d carries val %v, want %v (torn member bytes)", k, vs[i], float64(k)/2)
			}
		}
		keys = append(keys, ks...)
	}
}

// verifyLiveKeys checks got against want: exactly the same keys in the
// same order.
func verifyLiveKeys(got, want []int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("key %d at position %d, want %d", got[i], i, want[i])
		}
	}
	return nil
}

// TestCrashMatrix is the fault-injection crash matrix: one workload run
// records a durable-state snapshot at every fsync boundary — the only
// points durable state changes, so the snapshots cover every crash point
// exhaustively — then every snapshot is rebooted under both crash models
// (strict: unsynced directory entries are lost; loose: metadata-journaled
// namespaces survive, unsynced contents revert) and must reopen to
// exactly the last durable generation (or its in-flight successor) with
// exactly its rows, and pass a deep fsck without a warning.
func TestCrashMatrix(t *testing.T) {
	fb := storage.NewFault("crashds")
	fb.EnableSnapshots()
	commits, tag := crashWorkload(t, fb)
	snaps := fb.Snapshots()
	if len(snaps) < 20 {
		t.Fatalf("only %d snapshots recorded; the matrix is not covering the workload", len(snaps))
	}

	for _, model := range []string{"strict", "loose"} {
		for si, snap := range snaps {
			files := snap.Strict
			if model == "loose" {
				files = snap.Loose
			}
			rb := storage.NewFaultFromState("crashds", files)
			name := fmt.Sprintf("%s/snap%02d@op%d", model, si, snap.AfterOps)

			// The last commit that returned before this crash point is the
			// durability floor; the snapshot may also land inside the NEXT
			// commit's window (durable but not yet returned), so its
			// generation is the ceiling.
			expIdx := -1
			for i := range commits {
				if commits[i].ops <= snap.AfterOps {
					expIdx = i
				}
			}

			d2, err := Open("crashds", &Options{Backend: rb})
			if err != nil {
				if expIdx >= 0 {
					t.Fatalf("%s: generation %d was durable but reopen failed: %v",
						name, commits[expIdx].gen, err)
				}
				continue
			}
			g := d2.Generation()
			matchIdx := -1
			for i := range commits {
				if commits[i].gen == g {
					matchIdx = i
				}
			}
			if matchIdx < 0 {
				t.Fatalf("%s: rebooted to generation %d, which no commit produced", name, g)
			}
			if matchIdx != expIdx && matchIdx != expIdx+1 {
				t.Fatalf("%s: rebooted to generation %d, want %d (or its in-flight successor)",
					name, g, commits[max(expIdx, 0)].gen)
			}
			got, err := scanKeyVals(d2)
			if err != nil {
				t.Fatalf("%s: scan failed: %v", name, err)
			}
			if err := verifyLiveKeys(got, commits[matchIdx].live); err != nil {
				t.Fatalf("%s: %v", name, err)
			}

			// Structural verification, deep (checksums) included.
			rep, err := Fsck("crashds", &Options{Backend: rb}, true)
			if err != nil {
				t.Fatalf("%s: fsck: %v", name, err)
			}
			if !rep.OK() || len(rep.Warnings) > 0 {
				t.Fatalf("%s: fsck not clean: errors=%v warnings=%v members=%+v",
					name, rep.Errors, rep.Warnings, rep.Members)
			}

			// If the tag commit is durable in this snapshot, the tagged
			// generation must be openable and serve exactly its frozen row
			// set: later deletes only ever changed later manifests.
			tagDurable := d2.Tags()[tag.name] == tag.gen
			checkSnapshot := func(when string) {
				sd, err := OpenAt("crashds", tag.name, &Options{Backend: rb})
				if err != nil {
					t.Fatalf("%s: OpenAt(%q) %s: %v", name, tag.name, when, err)
				}
				defer sd.Close()
				if sd.Generation() != tag.gen {
					t.Fatalf("%s: tag %q resolved to generation %d, want %d",
						name, tag.name, sd.Generation(), tag.gen)
				}
				got, err := scanKeyVals(sd)
				if err != nil {
					t.Fatalf("%s: tagged snapshot scan %s: %v", name, when, err)
				}
				if err := verifyLiveKeys(got, tag.live); err != nil {
					t.Fatalf("%s: tagged snapshot %s: %v", name, when, err)
				}
			}
			if tagDurable {
				checkSnapshot("after reboot")
			}

			// The rebooted dataset must be fully operable: vacuum away the
			// debris, append, and scan the new rows back.
			if _, err := d2.Vacuum(); err != nil {
				t.Fatalf("%s: vacuum after reboot: %v", name, err)
			}

			// Vacuum must have reclaimed every untagged superseded manifest
			// while keeping the tagged generation's (when the tag is durable).
			listing, err := rb.List()
			if err != nil {
				t.Fatalf("%s: list after vacuum: %v", name, err)
			}
			present := map[string]bool{}
			for _, n := range listing {
				present[n] = true
			}
			for i := range commits {
				cg := commits[i].gen
				if cg >= g || !present[manifestName(cg)] {
					continue
				}
				if !(tagDurable && cg == tag.gen) {
					t.Fatalf("%s: vacuum left untagged manifest %s (current gen %d)",
						name, manifestName(cg), g)
				}
			}
			if tagDurable {
				if !present[manifestName(tag.gen)] {
					t.Fatalf("%s: vacuum reclaimed the tagged generation's manifest %s",
						name, manifestName(tag.gen))
				}
				checkSnapshot("after vacuum")
			}
			if err := d2.Append(keyBatch(t, d2.Schema(), 9000, 10)); err != nil {
				t.Fatalf("%s: append after reboot: %v", name, err)
			}
			after, err := scanKeyVals(d2)
			if err != nil {
				t.Fatalf("%s: scan after append: %v", name, err)
			}
			if len(after) < 10 {
				t.Fatalf("%s: %d rows after recovery append", name, len(after))
			}
			for i, k := range after[len(after)-10:] {
				if k != int64(9000+i) {
					t.Fatalf("%s: recovery append rows corrupted: tail %v", name, after[len(after)-10:])
				}
			}
			d2.Close()
		}
	}
}

// TestCommitErrorMatrix injects a one-shot error at every operation index
// in turn: each run must either fail cleanly at some public call or
// complete, and in both cases the dataset must reopen, pass fsck, vacuum,
// and accept writes afterwards.
func TestCommitErrorMatrix(t *testing.T) {
	boom := errors.New("injected fault")
	for k := 0; ; k++ {
		if k > 5000 {
			t.Fatal("error matrix did not terminate: workload never ran hook-free")
		}
		fb := storage.NewFault(fmt.Sprintf("errds-%d", k))
		fired := false
		fb.SetFailOp(func(op storage.Op) error {
			if op.Index == k {
				fired = true
				return boom
			}
			return nil
		})

		// One mutation of every kind; stop at the first surfaced error (the
		// injected fault may also be swallowed by a best-effort path).
		func() {
			opts := &Options{Backend: fb}
			d, err := Create("errds", testSchema(t), opts)
			if err != nil {
				return
			}
			defer d.Close()
			if err := d.Append(keyBatch(t, d.Schema(), 0, 100)); err != nil {
				return
			}
			if err := d.Tag("pre-delete", 0); err != nil {
				return
			}
			if err := d.Delete(spanRows(10, 20)); err != nil {
				return
			}
			if _, err := d.Compact(0.999); err != nil {
				return
			}
			if _, err := d.Vacuum(); err != nil {
				return
			}
		}()
		fb.SetFailOp(nil)

		// Recovery: the directory must come back as a working dataset (or
		// still accept Create when the injected fault preempted it).
		d, err := Open("errds", &Options{Backend: fb})
		if err != nil {
			if d, err = Create("errds", testSchema(t), &Options{Backend: fb}); err != nil {
				t.Fatalf("op %d: neither Open nor Create recovers: %v", k, err)
			}
		}
		rep, err := Fsck("errds", &Options{Backend: fb}, false)
		if err != nil || !rep.OK() {
			t.Fatalf("op %d: fsck after recovery: %v, errors=%v members=%+v", k, err, rep.Errors, rep.Members)
		}
		if _, err := d.Vacuum(); err != nil {
			t.Fatalf("op %d: vacuum after recovery: %v", k, err)
		}
		if err := d.Append(keyBatch(t, d.Schema(), 900, 20)); err != nil {
			t.Fatalf("op %d: append after recovery: %v", k, err)
		}
		got, err := scanKeyVals(d)
		if err != nil {
			t.Fatalf("op %d: scan after recovery: %v", k, err)
		}
		// The tail is always the recovery batch; everything before it comes
		// from the (possibly partially applied) workload.
		if len(got) < 20 {
			t.Fatalf("op %d: %d rows after recovery append", k, len(got))
		}
		for i, key := range got[len(got)-20:] {
			if key != int64(900+i) {
				t.Fatalf("op %d: recovery batch corrupted: %v", k, got[len(got)-20:])
			}
		}
		for _, key := range got[:len(got)-20] {
			if key < 0 || key >= 100 {
				t.Fatalf("op %d: key %d was never written by the workload", k, key)
			}
		}
		d.Close()

		if !fired {
			break // the workload ran past every op index there is
		}
	}
}

// isTempDebris reports whether name is a temporary the recovery sweep
// removes.
func isTempDebris(name string) bool { return kindOf(name) == tempFile }

// TestOpenSweepsTmpDebris plants crash debris and asserts that Fsck,
// which only reads, reports all of it classified, and that Open then
// removes exactly the temporaries — never parts or manifests.
func TestOpenSweepsTmpDebris(t *testing.T) {
	fb := storage.NewFault("sweepds")
	d, err := Create("sweepds", testSchema(t), &Options{Backend: fb})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Append(keyBatch(t, d.Schema(), 0, 50)); err != nil {
		t.Fatal(err)
	}
	d.Close()

	for _, debris := range []string{"foo.tmp", "ingest-9-0.tmp", "manifest-000009.json.tmp", "bar.tmp-1234"} {
		f, err := fb.Create(debris)
		if err != nil {
			t.Fatal(err)
		}
		f.Write([]byte("junk"))
		f.Close()
	}
	orphanPart := "part-000099-000.bln"
	f, _ := fb.Create(orphanPart)
	f.Close()

	// Fsck never opens a handle, so it sees all of it, classified.
	rep, err := Fsck("sweepds", &Options{Backend: fb}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.OrphanTmps) != 4 {
		t.Fatalf("fsck OrphanTmps = %v, want the 4 planted temporaries", rep.OrphanTmps)
	}
	if len(rep.OrphanParts) != 1 || rep.OrphanParts[0] != orphanPart {
		t.Fatalf("fsck OrphanParts = %v", rep.OrphanParts)
	}
	if !rep.OK() {
		t.Fatalf("orphans must not fail fsck: %v", rep.Errors)
	}

	// Open sweeps the temporaries, and only them.
	d2, err := Open("sweepds", &Options{Backend: fb})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	names, err := fb.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if isTempDebris(n) {
			t.Fatalf("temporary %s survived the recovery sweep", n)
		}
	}
	found := false
	for _, n := range names {
		if n == orphanPart {
			found = true
		}
	}
	if !found {
		t.Fatal("recovery sweep removed an unreferenced part file; only Vacuum may")
	}
	keys, err := scanKeyVals(d2)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 50 {
		t.Fatalf("%d rows after sweep, want 50", len(keys))
	}
}

// TestFsckReportsMissingMember pins the failure side of Fsck: a manifest
// referencing a vanished member is an error, not a warning.
func TestFsckReportsMissingMember(t *testing.T) {
	fb := storage.NewFault("fsckds")
	d, err := Create("fsckds", testSchema(t), &Options{Backend: fb})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Append(keyBatch(t, d.Schema(), 0, 30)); err != nil {
		t.Fatal(err)
	}
	victim := d.Manifest().Files[0].Name
	d.Close()
	if err := fb.Remove(victim); err != nil {
		t.Fatal(err)
	}
	rep, err := Fsck("fsckds", &Options{Backend: fb}, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("fsck passed with a missing member file")
	}
	if len(rep.Members) != 1 || len(rep.Members[0].Errors) == 0 {
		t.Fatalf("missing member not surfaced: %+v", rep.Members)
	}
}
