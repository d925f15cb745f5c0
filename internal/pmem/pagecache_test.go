package pmem

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// The page cache in front of Memory's page map must be invisible: every
// sequence of reads, writes, snapshots and overlays reads exactly what a
// flat byte model (and a Clone of the memory) holds.

// cacheTestPages returns page numbers that exercise the direct-mapped
// cache: more distinct pages than slots, several aliased to one slot,
// and neighbours for writes that straddle a page boundary.
func cacheTestPages() []uint64 {
	base := uint64(PMBase / pageSize)
	var pns []uint64
	for k := uint64(0); k < 4; k++ {
		pns = append(pns, base+3+k*pageCacheSlots) // one slot, four pages
	}
	for j := uint64(0); j < 2*pageCacheSlots; j++ {
		pns = append(pns, base+100+j)
	}
	heap := uint64(HeapBase / pageSize)
	pns = append(pns, heap, heap+pageCacheSlots)
	return pns
}

// flatModel is the reference contents: plain page arrays, no sharing,
// no cache.
type flatModel map[uint64]*[pageSize]byte

func (fm flatModel) set(addr uint64, v byte) {
	pg := fm[addr/pageSize]
	if pg == nil {
		pg = new([pageSize]byte)
		fm[addr/pageSize] = pg
	}
	pg[addr%pageSize] = v
}

func (fm flatModel) get(addr uint64) byte {
	if pg := fm[addr/pageSize]; pg != nil {
		return pg[addr%pageSize]
	}
	return 0
}

// modelMem pairs a Memory with a flat model of its contents.
type modelMem struct {
	mem    *Memory
	model  flatModel
	frozen bool // backs live overlays: must not be written again
}

func (mm *modelMem) copyModel() flatModel {
	out := make(flatModel, len(mm.model))
	for pn, pg := range mm.model {
		cp := *pg
		out[pn] = &cp
	}
	return out
}

func (mm *modelMem) expect(addr uint64, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = mm.model.get(addr + uint64(i))
	}
	return out
}

func (mm *modelMem) setUint(addr uint64, size int, v uint64) {
	for i := 0; i < size; i++ {
		mm.model.set(addr+uint64(i), byte(v>>(8*i)))
	}
}

func randAddr(rng *rand.Rand, pns []uint64) uint64 {
	pn := pns[rng.Intn(len(pns))]
	var off uint64
	switch rng.Intn(4) {
	case 0:
		off = pageSize - 1 - uint64(rng.Intn(10)) // straddles for wide accesses
	case 1:
		off = uint64(rng.Intn(8))
	default:
		off = uint64(rng.Intn(pageSize))
	}
	return pn*pageSize + off
}

// checkAgainstModel compares every byte of every test page — through the
// memory itself and through its Clone — with the model.
func checkAgainstModel(t *testing.T, where string, mm *modelMem, pns []uint64) {
	t.Helper()
	clone := mm.mem.Clone()
	got := make([]byte, pageSize)
	cgot := make([]byte, pageSize)
	var zero [pageSize]byte
	for _, pn := range pns {
		want := zero[:]
		if pg := mm.model[pn]; pg != nil {
			want = pg[:]
		}
		mm.mem.Read(pn*pageSize, got)
		clone.Read(pn*pageSize, cgot)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: page %#x differs from the model", where, pn)
		}
		if !bytes.Equal(cgot, want) {
			t.Fatalf("%s: Clone of page %#x differs from the model", where, pn)
		}
	}
}

func TestPageCacheCoherenceRandomized(t *testing.T) {
	pns := cacheTestPages()
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			mems := []*modelMem{{mem: NewMemory(), model: flatModel{}}}
			writable := func() *modelMem {
				for tries := 0; tries < 8; tries++ {
					if mm := mems[rng.Intn(len(mems))]; !mm.frozen {
						return mm
					}
				}
				return nil
			}
			for step := 0; step < 3000; step++ {
				where := fmt.Sprintf("seed %d step %d", seed, step)
				switch op := rng.Intn(100); {
				case op < 45: // write
					mm := writable()
					if mm == nil {
						continue
					}
					addr := randAddr(rng, pns)
					switch rng.Intn(4) {
					case 0:
						v := rng.Uint64()
						mm.mem.WriteUint(addr, 8, v)
						mm.setUint(addr, 8, v)
					case 1:
						v := byte(rng.Intn(256))
						mm.mem.WriteUint(addr, 1, uint64(v))
						mm.model.set(addr, v)
					case 2:
						v := byte(rng.Intn(256))
						mm.mem.Store8(addr, v)
						mm.model.set(addr, v)
					default:
						buf := make([]byte, 1+rng.Intn(24))
						rng.Read(buf)
						mm.mem.Write(addr, buf)
						for i, b := range buf {
							mm.model.set(addr+uint64(i), b)
						}
					}
				case op < 85: // read
					mm := mems[rng.Intn(len(mems))]
					addr := randAddr(rng, pns)
					switch rng.Intn(3) {
					case 0:
						want := mm.expect(addr, 8)
						var got [8]byte
						v := mm.mem.ReadUint(addr, 8)
						for i := range got {
							got[i] = byte(v >> (8 * i))
						}
						if !bytes.Equal(got[:], want) {
							t.Fatalf("%s: ReadUint(%#x, 8) = %x, want %x", where, addr, got, want)
						}
					case 1:
						if got, want := mm.mem.ReadUint(addr, 1), uint64(mm.model.get(addr)); got != want {
							t.Fatalf("%s: ReadUint(%#x, 1) = %d, want %d", where, addr, got, want)
						}
					default:
						got := make([]byte, 1+rng.Intn(24))
						mm.mem.Read(addr, got)
						if want := mm.expect(addr, len(got)); !bytes.Equal(got, want) {
							t.Fatalf("%s: Read(%#x) = %x, want %x", where, addr, got, want)
						}
					}
				case op < 91: // snapshot
					mm := writable()
					if mm == nil {
						continue
					}
					mems = append(mems, &modelMem{mem: mm.mem.Snapshot(), model: mm.copyModel()})
				case op < 95: // overlay: the base freezes
					mm := mems[rng.Intn(len(mems))]
					mm.frozen = true
					mems = append(mems, &modelMem{mem: mm.mem.Overlay(), model: mm.copyModel()})
				default:
					checkAgainstModel(t, where, mems[rng.Intn(len(mems))], pns)
				}
				if len(mems) > 10 {
					// Retire the oldest; overlays keep their bases alive.
					mems = mems[1:]
				}
			}
			for i, mm := range mems {
				checkAgainstModel(t, fmt.Sprintf("seed %d final memory %d", seed, i), mm, pns)
			}
		})
	}
}

// TestPageCacheSnapshotDropsOwnership pins the rule that makes the cache
// safe: after Snapshot, a page written before it is shared, so the next
// write must copy it rather than hit the cached pointer.
func TestPageCacheSnapshotDropsOwnership(t *testing.T) {
	m := NewMemory()
	m.WriteUint(PMBase, 8, 1) // materializes and caches the page
	snap := m.Snapshot()
	m.WriteUint(PMBase, 8, 2)
	snap.WriteUint(PMBase+8, 8, 3)
	if got := snap.ReadUint(PMBase, 8); got != 1 {
		t.Fatalf("snapshot sees the parent's later write: %d", got)
	}
	if got := m.ReadUint(PMBase+8, 8); got != 0 {
		t.Fatalf("parent sees the snapshot's later write: %d", got)
	}
}

// TestPageCacheReadsNeverFill checks that reads leave every cache alone:
// a frozen base's cache and its overlay's cache are only ever written by
// their own write paths.
func TestPageCacheReadsNeverFill(t *testing.T) {
	base := NewMemory()
	base.WriteUint(PMBase, 8, 42)
	before := base.cache
	ov := base.Overlay()
	if got := ov.ReadUint(PMBase, 8); got != 42 {
		t.Fatalf("overlay read %d, want 42", got)
	}
	ov.Read(PMBase+pageSize, make([]byte, 16))
	if ov.cache != ([pageCacheSlots]cachedPage{}) {
		t.Fatal("a read filled the overlay's page cache")
	}
	if base.cache != before {
		t.Fatal("a read through an overlay changed the base's page cache")
	}
	ov.WriteUint(PMBase, 8, 7)
	if got := base.ReadUint(PMBase, 8); got != 42 {
		t.Fatalf("overlay write reached the frozen base: %d", got)
	}
}

// TestPageCacheConcurrentOverlays writes several overlays of one frozen,
// fully cached base from their own goroutines while every goroutine also
// reads the base (run under -race by make verify).
func TestPageCacheConcurrentOverlays(t *testing.T) {
	pns := cacheTestPages()
	base := &modelMem{mem: NewMemory(), model: flatModel{}}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		addr := randAddr(rng, pns)
		v := rng.Uint64()
		base.mem.WriteUint(addr, 8, v)
		base.setUint(addr, 8, v)
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			ov := &modelMem{mem: base.mem.Overlay(), model: base.copyModel()}
			for i := 0; i < 2000; i++ {
				addr := randAddr(rng, pns)
				v := rng.Uint64()
				ov.mem.WriteUint(addr, 8, v)
				ov.setUint(addr, 8, v)
				probe := randAddr(rng, pns)
				var got [8]byte
				ov.mem.Read(probe, got[:])
				if !bytes.Equal(got[:], ov.expect(probe, 8)) {
					errs <- fmt.Errorf("worker %d: overlay read at %#x diverged", seed, probe)
					return
				}
				bv := base.mem.ReadUint(probe, 8)
				for k := range got {
					got[k] = byte(bv >> (8 * k))
				}
				if !bytes.Equal(got[:], base.expect(probe, 8)) {
					errs <- fmt.Errorf("worker %d: frozen base changed at %#x", seed, probe)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMappedMatchesRegionOf pins the fast access check to the layout's
// region classification, including every region boundary.
func TestMappedMatchesRegionOf(t *testing.T) {
	edges := []uint64{0, NullGuardSize, GlobalBase, HeapBase, StackBase - StackMax, StackBase, PMBase, PMBase + DefaultPMSize, ^uint64(0)}
	for _, e := range edges {
		for _, d := range []uint64{^uint64(0), 0, 1} { // e-1, e, e+1
			addr := e + d
			if got, want := Mapped(addr), RegionOf(addr) != RegionInvalid; got != want {
				t.Errorf("Mapped(%#x) = %v, RegionOf says %v", addr, got, RegionOf(addr))
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100000; i++ {
		addr := rng.Uint64() >> uint(rng.Intn(64))
		if got, want := Mapped(addr), RegionOf(addr) != RegionInvalid; got != want {
			t.Fatalf("Mapped(%#x) = %v, RegionOf says %v", addr, got, RegionOf(addr))
		}
	}
}

// TestOnCheckpointNothingPendingAllocatesNothing: every durability point
// with no pending store — one per command in a clean workload — must
// cost no allocation and report nothing.
func TestOnCheckpointNothingPendingAllocatesNothing(t *testing.T) {
	tr := NewTracker()
	tr.OnStore(1, PMBase, []byte{1})
	tr.OnFlush(2, false, PMBase)
	tr.OnFence(3)
	allocs := testing.AllocsPerRun(100, func() {
		if vs := tr.OnCheckpoint(4); vs != nil {
			t.Fatalf("OnCheckpoint with nothing pending returned %v", vs)
		}
	})
	if allocs != 0 {
		t.Fatalf("OnCheckpoint with nothing pending: %.1f allocs, want 0", allocs)
	}
}
