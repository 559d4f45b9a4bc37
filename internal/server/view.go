package server

import (
	"hash/maphash"
	"slices"

	"kfusion/internal/fusion"
	"kfusion/internal/genstore"
	"kfusion/internal/httpapi"
	"kfusion/internal/kb"
)

// genView is one published generation: the fused result plus read indexes,
// fully immutable after construction. The server swaps views with a single
// atomic pointer store, so readers never take a lock and never observe a
// generation mid-build — a request resolves entirely against the view it
// loaded, even while the next append is compiling. Index entries are
// positions into res.Triples, whose order is the fusion engine's
// deterministic output order; every response lists triples in that order.
type genView struct {
	generation int
	consumed   int
	res        *fusion.Result
	byItem     groupIndex[kb.DataItem]
	bySubject  groupIndex[kb.EntityID]
}

// newGenView indexes a recovered or freshly-appended state for serving. It
// extends prev's read indexes over the rows st adds, relying on the append
// contract both engines pin: Result.Triples is in first-occurrence triple
// order, so prev's rows are a prefix of st's at the same positions. prev may
// be nil (hydration, first generation), and a prev whose rows are not a
// prefix — checked cheaply at its last row — is ignored; either way the
// build extends from the empty view, so there is one code path. A state with
// no result yet (empty store) yields an empty, ready view.
func newGenView(prev *genView, st *genstore.State) *genView {
	v := &genView{generation: st.Batches, consumed: st.Consumed, res: st.Result}
	rows := v.triples()
	if prev == nil || !prev.isPrefixOf(rows) {
		prev = &genView{}
	}
	v.byItem = prev.byItem.extend(itemKeys, rows)
	v.bySubject = prev.bySubject.extend(subjectKeys, rows)
	return v
}

// isPrefixOf reports whether v's rows open rows unchanged: rows is no
// shorter and agrees with v at v's last row.
func (v *genView) isPrefixOf(rows []fusion.FusedTriple) bool {
	old := v.triples()
	n := len(old)
	return n <= len(rows) && (n == 0 || old[n-1].Triple == rows[n-1].Triple)
}

// triples returns the view's fused rows, nil for an empty generation.
func (v *genView) triples() []fusion.FusedTriple {
	if v.res == nil {
		return nil
	}
	return v.res.Triples
}

// item resolves one data item to its wire response, false if the view holds
// no fused value for it.
func (v *genView) item(subject, predicate string) (*httpapi.ItemResponse, bool) {
	rows := v.triples()
	idxs := v.byItem.lookup(itemKeys, rows, kb.DataItem{Subject: kb.EntityID(subject), Predicate: kb.PredicateID(predicate)})
	if idxs == nil {
		return nil, false
	}
	resp := &httpapi.ItemResponse{
		Subject:    subject,
		Predicate:  predicate,
		Generation: v.generation,
		Triples:    make([]httpapi.FusedTriple, 0, len(idxs)),
	}
	for _, i := range idxs {
		resp.Triples = append(resp.Triples, httpapi.FromFused(rows[i]))
	}
	return resp, true
}

// triplesQuery filters the view's fused rows. An empty subject scans the
// whole generation; a subject narrows through the bySubject index first.
// Total counts every match; at most limit rows are returned.
func (v *genView) triplesQuery(subject, predicate string, minProb float64, limit int) *httpapi.TriplesResponse {
	resp := &httpapi.TriplesResponse{Generation: v.generation}
	match := func(t fusion.FusedTriple) bool {
		if predicate != "" && string(t.Triple.Predicate) != predicate {
			return false
		}
		return t.Probability >= minProb
	}
	add := func(t fusion.FusedTriple) {
		resp.Total++
		if len(resp.Triples) < limit {
			resp.Triples = append(resp.Triples, httpapi.FromFused(t))
		}
	}
	rows := v.triples()
	if subject != "" {
		for _, i := range v.bySubject.lookup(subjectKeys, rows, kb.EntityID(subject)) {
			if t := rows[i]; match(t) {
				add(t)
			}
		}
		return resp
	}
	for _, t := range rows {
		if match(t) {
			add(t)
		}
	}
	return resp
}

// grouping says how a groupIndex keys rows: the key of one fused triple,
// and that key's hash.
type grouping[K comparable] struct {
	key  func(*kb.Triple) K
	hash func(K) uint64
}

var (
	itemKeys    = grouping[kb.DataItem]{key: (*kb.Triple).Item, hash: hashItem}
	subjectKeys = grouping[kb.EntityID]{key: func(t *kb.Triple) kb.EntityID { return t.Subject }, hash: hashSubject}
)

// readSeed keys the read-index hashes for the life of the process. Nothing
// observable depends on it: group IDs follow row order, and no response
// walks a table.
var readSeed = maphash.MakeSeed()

func hashSubject(s kb.EntityID) uint64 { return maphash.String(readSeed, string(s)) }

func hashItem(d kb.DataItem) uint64 {
	const mixPrime = 0x9E3779B97F4A7C15 // odd golden-ratio multiplier
	return hashSubject(d.Subject)*mixPrime ^ maphash.String(readSeed, string(d.Predicate))
}

// groupIndex groups a generation's rows by key (data item or subject). It
// holds no key and no pointer — only int32 arrays the GC never scans — and a
// group's key is read back from the group's first row. A new generation's
// index extends the previous one: only the appended rows are hashed and
// sorted, and the O(total) remainder is array copies plus one pass over the
// group offsets. The zero value indexes no rows; an index is never modified
// once built, so readers of an older generation never see a later write.
type groupIndex[K comparable] struct {
	slots []int32 // open-addressing table, power-of-two length: group ID+1, 0 = empty
	first []int32 // group ID → its first row, which carries the group's key
	start []int32 // CSR offsets: group g's rows are rows[start[g]:start[g+1]]
	rows  []int32 // row positions grouped by group, ascending within a group
}

// extend returns the index over rows, whose first len(x.rows) entries
// are the rows x indexes. x is left untouched.
func (x groupIndex[K]) extend(gr grouping[K], rows []fusion.FusedTriple) groupIndex[K] {
	nOld, n := len(x.rows), len(rows)
	if n == nOld {
		return x
	}
	nx := groupIndex[K]{slots: slices.Clone(x.slots), first: slices.Clip(x.first)}
	added := make([]uint64, 0, n-nOld) // group<<32 | row of each new row
	for r := nOld; r < n; r++ {
		k := gr.key(&rows[r].Triple)
		h := gr.hash(k)
		g, ok := nx.find(gr, rows, k, h)
		if !ok {
			g = int32(len(nx.first))
			nx.first = append(nx.first, int32(r))
			if 2*len(nx.first) > len(nx.slots) {
				nx.grow(gr, rows) // keeps the load at most 1/2
			} else {
				nx.insert(h, g)
			}
		}
		added = append(added, uint64(g)<<32|uint64(r))
	}
	slices.Sort(added)

	// Merge the CSR: each group keeps its rows from x, copied in runs of
	// groups the batch does not touch, followed by its new rows.
	oldGroups, groups := int32(len(x.first)), int32(len(nx.first))
	nx.start = make([]int32, groups+1)
	nx.rows = make([]int32, 0, n)
	next := int32(0) // lowest group whose offset is not set yet
	openThrough := func(last int32) {
		if next <= last && next < oldGroups {
			end := min(last+1, oldGroups)
			shift := int32(len(nx.rows)) - x.start[next]
			for g := next; g < end; g++ {
				nx.start[g] = x.start[g] + shift
			}
			nx.rows = append(nx.rows, x.rows[x.start[next]:x.start[end]]...)
			next = end
		}
		for ; next <= last; next++ {
			nx.start[next] = int32(len(nx.rows))
		}
	}
	for _, e := range added {
		openThrough(int32(e >> 32))
		nx.rows = append(nx.rows, int32(uint32(e)))
	}
	openThrough(groups)
	return nx
}

// grow doubles the table and re-inserts every group, hashing each key read
// back from the group's first row. Only extend calls it, on arrays it owns.
func (x *groupIndex[K]) grow(gr grouping[K], rows []fusion.FusedTriple) {
	x.slots = make([]int32, max(16, 2*len(x.slots)))
	for g, r := range x.first {
		x.insert(gr.hash(gr.key(&rows[r].Triple)), int32(g))
	}
}

// insert places group g, whose key hashes to h, in the first empty slot of
// its probe sequence. Only extend calls it, on arrays it owns.
func (x *groupIndex[K]) insert(h uint64, g int32) {
	mask := uint64(len(x.slots) - 1)
	i := h & mask
	for x.slots[i] != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = g + 1
}

// find returns the group whose key is k (hashing to h), comparing keys read
// back from the groups' first rows.
func (x *groupIndex[K]) find(gr grouping[K], rows []fusion.FusedTriple, k K, h uint64) (int32, bool) {
	if len(x.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(x.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := x.slots[i]
		if s == 0 {
			return 0, false
		}
		if gr.key(&rows[x.first[s-1]].Triple) == k {
			return s - 1, true
		}
	}
}

// lookup returns the positions of k's rows in ascending order, nil if no
// row has key k. rows must be the rows the index was built over. It never
// allocates.
func (x *groupIndex[K]) lookup(gr grouping[K], rows []fusion.FusedTriple, k K) []int32 {
	g, ok := x.find(gr, rows, k, gr.hash(k))
	if !ok {
		return nil
	}
	return x.rows[x.start[g]:x.start[g+1]:x.start[g+1]]
}
