package engine

import (
	"encoding/binary"
	"errors"

	"ipa/internal/buffer"
	"ipa/internal/core"
	"ipa/internal/page"
)

// B+tree node layout (the tree itself is OLCIndex, olctree.go), written
// directly into the page body:
//
//	leaf (FlagIndex|FlagLeaf):     count:uint16, entries[count]{key:u64, page:u64, slot:u16}
//	internal (FlagIndex):          count:uint16, child0:u64, entries[count]{key:u64, child:u64}
//
// An internal node routes key < entries[0].key to child0, and key ≥
// entries[i].key (last such i) to entries[i].child. Leaves are chained
// via NextPage for range scans.
const (
	leafEntrySize = 18
	intEntrySize  = 16
	nodeCountOff  = page.HeaderSize
	nodeBodyOff   = page.HeaderSize + 2
)

// ErrKeyExists is returned on duplicate insert.
var ErrKeyExists = errors.New("engine: key already in index")

// --- node accessors (operate on raw frame data) -----------------------

type node struct {
	fr   *buffer.Frame
	pg   *page.Page
	leaf bool
	cap  int // max entries
}

// attachNode decodes a frame as a tree node. The caller must hold the
// frame pinned and latched, since page.Attach reads header bytes.
func attachNode(st *PageStore, fr *buffer.Frame) (*node, error) {
	pg, err := page.Attach(fr.Data, st.layout)
	if err != nil {
		return nil, err
	}
	n := &node{fr: fr, pg: pg, leaf: pg.Flags()&page.FlagLeaf != 0}
	body := st.layout.DeltaAreaStart() - nodeBodyOff
	if n.leaf {
		n.cap = body / leafEntrySize
	} else {
		n.cap = (body - 8) / intEntrySize
	}
	return n, nil
}

func (n *node) count() int {
	return int(binary.LittleEndian.Uint16(n.fr.Data[nodeCountOff:]))
}

func (n *node) setCount(c int) {
	binary.LittleEndian.PutUint16(n.fr.Data[nodeCountOff:], uint16(c))
}

// leaf entries
func (n *node) leafKey(i int) uint64 {
	off := nodeBodyOff + i*leafEntrySize
	return binary.LittleEndian.Uint64(n.fr.Data[off:])
}

func (n *node) leafRID(i int) core.RID {
	off := nodeBodyOff + i*leafEntrySize
	return core.RID{
		Page: core.PageID(binary.LittleEndian.Uint64(n.fr.Data[off+8:])),
		Slot: binary.LittleEndian.Uint16(n.fr.Data[off+16:]),
	}
}

func (n *node) setLeaf(i int, key uint64, rid core.RID) {
	off := nodeBodyOff + i*leafEntrySize
	binary.LittleEndian.PutUint64(n.fr.Data[off:], key)
	binary.LittleEndian.PutUint64(n.fr.Data[off+8:], uint64(rid.Page))
	binary.LittleEndian.PutUint16(n.fr.Data[off+16:], rid.Slot)
}

// internal entries
func (n *node) child0() core.PageID {
	return core.PageID(binary.LittleEndian.Uint64(n.fr.Data[nodeBodyOff:]))
}

func (n *node) setChild0(id core.PageID) {
	binary.LittleEndian.PutUint64(n.fr.Data[nodeBodyOff:], uint64(id))
}

func (n *node) intKey(i int) uint64 {
	off := nodeBodyOff + 8 + i*intEntrySize
	return binary.LittleEndian.Uint64(n.fr.Data[off:])
}

func (n *node) intChild(i int) core.PageID {
	off := nodeBodyOff + 8 + i*intEntrySize
	return core.PageID(binary.LittleEndian.Uint64(n.fr.Data[off+8:]))
}

func (n *node) setInt(i int, key uint64, child core.PageID) {
	off := nodeBodyOff + 8 + i*intEntrySize
	binary.LittleEndian.PutUint64(n.fr.Data[off:], key)
	binary.LittleEndian.PutUint64(n.fr.Data[off+8:], uint64(child))
}

// leafSearch returns the position of key (found) or its insertion point.
func (n *node) leafSearch(key uint64) (pos int, found bool) {
	lo, hi := 0, n.count()
	for lo < hi {
		mid := (lo + hi) / 2
		k := n.leafKey(mid)
		if k == key {
			return mid, true
		}
		if k < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, false
}

// route returns the child to follow for key in an internal node.
func (n *node) route(key uint64) core.PageID {
	lo, hi := 0, n.count()
	for lo < hi {
		mid := (lo + hi) / 2
		if n.intKey(mid) <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return n.child0()
	}
	return n.intChild(lo - 1)
}

func insertLeafAt(n *node, pos int, key uint64, rid core.RID) {
	for i := n.count(); i > pos; i-- {
		n.setLeaf(i, n.leafKey(i-1), n.leafRID(i-1))
	}
	n.setLeaf(pos, key, rid)
	n.setCount(n.count() + 1)
}

func insertIntAt(n *node, key uint64, child core.PageID) {
	pos := 0
	for pos < n.count() && n.intKey(pos) < key {
		pos++
	}
	for i := n.count(); i > pos; i-- {
		n.setInt(i, n.intKey(i-1), n.intChild(i-1))
	}
	n.setInt(pos, key, child)
	n.setCount(n.count() + 1)
}
