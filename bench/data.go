package main

import (
	"fmt"

	"bullion/internal/core"
)

// rowsPerUID is how many consecutive rows share one uid: row g of a
// dataset carries uid g/rowsPerUID, so members cover disjoint key ranges
// and one user's rows sit together.
const rowsPerUID = 8

// pageRows is the writer's page size in every dataset the benchmark
// builds. Members are about an eighth of the size the issue first
// sketched (set-up has to fit the run budget), and the page shrinks with
// them from the writer's default 1024, so a member still spans several
// pages and page-level pruning has something to prune.
const pageRows = 128

// withUIDs returns a batch of cols whose uid column starts at firstRow.
// The other columns are shared, not copied.
func withUIDs(schema *core.Schema, cols []core.ColumnData, firstRow uint64) (*core.Batch, error) {
	ui, ok := schema.Lookup("uid")
	if !ok {
		return nil, fmt.Errorf("schema has no uid column")
	}
	out := append([]core.ColumnData(nil), cols...)
	uids := make(core.Int64Data, cols[ui].Len())
	for i := range uids {
		uids[i] = int64((firstRow + uint64(i)) / rowsPerUID)
	}
	out[ui] = uids
	return core.NewBatch(schema, out)
}

// userBytes is the raw size of a batch's values: 8 bytes per int64 or
// double, 4 per float, the length of each byte string; list and row
// framing count nothing.
func userBytes(b *core.Batch) int64 {
	var n int64
	for _, c := range b.Columns {
		switch d := c.(type) {
		case core.Int64Data:
			n += 8 * int64(len(d))
		case core.Float64Data:
			n += 8 * int64(len(d))
		case core.Float32Data:
			n += 4 * int64(len(d))
		case core.BytesData:
			for _, v := range d {
				n += int64(len(v))
			}
		case core.ListInt64Data:
			for _, v := range d {
				n += 8 * int64(len(v))
			}
		case core.ListFloat32Data:
			for _, v := range d {
				n += 4 * int64(len(v))
			}
		case core.ListFloat64Data:
			for _, v := range d {
				n += 8 * int64(len(v))
			}
		case core.ListBytesData:
			for _, l := range d {
				for _, v := range l {
					n += int64(len(v))
				}
			}
		case core.ListListInt64Data:
			for _, l := range d {
				for _, v := range l {
					n += 8 * int64(len(v))
				}
			}
		default:
			panic(fmt.Sprintf("userBytes: unhandled column type %T", c))
		}
	}
	return n
}

// uidDigest folds a stream of uids into a row count, an fnv64a over the
// uids in order, and an order-free sum of per-uid hashes for streams whose
// order the benchmark does not fix (shuffled epochs).
type uidDigest struct {
	rows  int
	chain uint64
	sum   uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newDigest() uidDigest { return uidDigest{chain: fnvOffset} }

func (d *uidDigest) add(uid int64) {
	one := uint64(fnvOffset)
	for i := 0; i < 8; i++ {
		b := uint64(byte(uid >> (8 * i)))
		d.chain = (d.chain ^ b) * fnvPrime
		one = (one ^ b) * fnvPrime
	}
	d.sum += one
	d.rows++
}

// addBatch adds the uids of b (its column ui) that pass keep.
func (d *uidDigest) addBatch(b *core.Batch, ui int, keep func(uid int64) bool) error {
	uids, ok := b.Columns[ui].(core.Int64Data)
	if !ok {
		return fmt.Errorf("uid column is %T, want Int64Data", b.Columns[ui])
	}
	for _, u := range uids {
		if keep == nil || keep(u) {
			d.add(u)
		}
	}
	return nil
}

// referenceDigest is what a scan must return, worked out from the
// generator alone: rows [0, total) carry uid row/rowsPerUID, rows of a
// deleted uid are gone, and keep is the scan's exact predicate.
func referenceDigest(total uint64, deleted map[int64]bool, keep func(uid int64) bool) uidDigest {
	d := newDigest()
	for g := uint64(0); g < total; g++ {
		u := int64(g / rowsPerUID)
		if deleted[u] || (keep != nil && !keep(u)) {
			continue
		}
		d.add(u)
	}
	return d
}

// rowsOfUIDs lists the dataset rows of the given uids.
func rowsOfUIDs(uids []int64) []uint64 {
	rows := make([]uint64, 0, len(uids)*rowsPerUID)
	for _, u := range uids {
		for i := uint64(0); i < rowsPerUID; i++ {
			rows = append(rows, uint64(u)*rowsPerUID+i)
		}
	}
	return rows
}
