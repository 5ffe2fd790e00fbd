package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
)

// Record shape: the paper's Fig. 7/9 insert benchmark uses 100-byte
// records; keys are 8 bytes.
const (
	keyLen   = 8
	valueLen = 100
	crcOff   = valueLen - 4
)

// The table every workload writes.
const table = "kv"

type opKind uint8

const (
	opInsert opKind = iota
	opGet
	opUpdate
)

// op is one generated operation. For a write, version is the version the
// value encodes; for a read, it is the version the read must return.
type op struct {
	kind    opKind
	conn    uint8 // client connection (serve-zipf only)
	key     uint64
	version uint64
}

// splitmix64 is a bijective 64-bit mixer: distinct inputs give distinct
// outputs, so hashed key ids never collide.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func putKey(dst []byte, key uint64) { binary.BigEndian.PutUint64(dst, key) }

// encodeValue fills dst[:valueLen] with the key, the version, filler
// derived from both, and a CRC-32 of everything before it.
func encodeValue(dst []byte, key, version uint64) {
	binary.BigEndian.PutUint64(dst[0:], key)
	binary.BigEndian.PutUint64(dst[8:], version)
	x := key ^ version*0x9e3779b97f4a7c15
	for i := 16; i < crcOff; i += 8 {
		x = splitmix64(x)
		binary.BigEndian.PutUint64(dst[i:], x)
	}
	binary.BigEndian.PutUint32(dst[crcOff:], crc32.ChecksumIEEE(dst[:crcOff]))
}

var errBadValue = errors.New("value fails its check")

// checkValue verifies a read value against its CRC, its key and the
// version the generator's model expects.
func checkValue(v []byte, key, version uint64) error {
	if len(v) != valueLen {
		return fmt.Errorf("%w: key %x: length %d", errBadValue, key, len(v))
	}
	if crc32.ChecksumIEEE(v[:crcOff]) != binary.BigEndian.Uint32(v[crcOff:]) {
		return fmt.Errorf("%w: key %x: CRC mismatch", errBadValue, key)
	}
	k, ver := binary.BigEndian.Uint64(v[0:]), binary.BigEndian.Uint64(v[8:])
	if k != key || ver != version {
		return fmt.Errorf("%w: key %x: holds key %x version %d, want version %d", errBadValue, key, k, ver, version)
	}
	return nil
}

// workload is the seeded input of one run: the preloaded records, the
// operation sequence of one round, the final version of every key once
// the round's writes are acknowledged, and the fresh keys the tail
// commits insert after the round's closing checkpoint.
type workload struct {
	preload []uint64
	ops     []op
	final   map[uint64]uint64
	tail    []uint64
}

// tailCommits single-record inserts follow a checkpoint just before the
// power failure, so recovery always replays the same amount of log
// rather than whatever the last checkpoint happened to leave.
const tailCommits = 500

// The tail keys are drawn in random order from a narrow seeded key
// window, so they land between two existing keys and fill a few fresh
// leaf pages: the log recovery replays has nearly the same size for
// every seed, and only the insertion order differs.
func (wl *workload) addTail(seed int64) {
	r := rand.New(rand.NewSource(seed ^ 0x7a11))
	start := r.Uint64() >> 1
	seen := make(map[uint64]bool, tailCommits)
	for len(wl.tail) < tailCommits {
		k := start + r.Uint64()>>24
		if _, dup := wl.final[k]; !dup && !seen[k] {
			seen[k] = true
			wl.tail = append(wl.tail, k)
		}
	}
}

// Sizes. The pager cache is unbounded, so every table fits in DRAM; the
// sizes are chosen for run length and sample counts, not cache fit.
const (
	insertOps     = 20000  // insert-commit: inserts per round, table starts empty
	zipfRecords   = 20000  // zipf workloads: preloaded records
	zipfOps       = 240000 // zipf-read-update: operations per round; ~12k are updates, enough for a virtual p99.9
	zipfS         = 1.1    // Zipf exponent
	updateShare   = 0.05   // zipf-read-update: share of one-record updates
	serveOps      = 60000  // serve-zipf: requests per round, over all connections
	servePutShare = 0.20   // serve-zipf: share of Puts
)

// genInsert makes insertOps single-record inserts of distinct
// uniform-random keys.
func genInsert(seed int64) workload {
	r := rand.New(rand.NewSource(seed))
	w := workload{final: make(map[uint64]uint64, insertOps)}
	for len(w.ops) < insertOps {
		k := r.Uint64()
		if _, dup := w.final[k]; dup {
			continue
		}
		w.final[k] = 1
		w.ops = append(w.ops, op{kind: opInsert, key: k, version: 1})
	}
	w.addTail(seed)
	return w
}

// zipfKeys returns the preloaded keys, hottest first: id i maps to a
// hashed key so hot records scatter over the tree.
func zipfKeys(seed int64) []uint64 {
	keys := make([]uint64, zipfRecords)
	for i := range keys {
		keys[i] = splitmix64(uint64(seed)<<32 ^ uint64(i))
	}
	return keys
}

// genZipfMix makes n Zipf-keyed operations over the preloaded table,
// writeShare of them writes (kind w) and the rest Gets. Each Get expects
// the version of the last write to its key before it. With conns > 1,
// operation i goes to connection i mod conns and draws only keys that
// connection owns, so every connection gets the same number of
// operations and a key's operations stay in order on one connection.
func genZipfMix(seed int64, n, conns int, writeShare float64, w opKind) workload {
	r := rand.New(rand.NewSource(seed))
	keys := zipfKeys(seed)
	wl := workload{preload: keys, final: make(map[uint64]uint64, len(keys))}
	for _, k := range keys {
		wl.final[k] = 1
	}
	z := rand.NewZipf(r, zipfS, 1, uint64(len(keys)-1))
	wl.ops = make([]op, n)
	for i := range wl.ops {
		c := uint8(i % conns)
		k := keys[z.Uint64()]
		for keyConn(k, conns) != c {
			k = keys[z.Uint64()]
		}
		o := op{kind: opGet, conn: c, key: k, version: wl.final[k]}
		if r.Float64() < writeShare {
			o.kind = w
			o.version++
			wl.final[k] = o.version
		}
		wl.ops[i] = o
	}
	wl.addTail(seed)
	return wl
}

// keyConn is the connection that owns key.
func keyConn(key uint64, conns int) uint8 { return uint8(splitmix64(key) % uint64(conns)) }

func genZipfReadUpdate(seed int64) workload {
	return genZipfMix(seed, zipfOps, 1, updateShare, opUpdate)
}

// genServe makes the serve-zipf operations: 80 % Get / 20 % Put on Zipf
// keys, split evenly over the client connections.
func genServe(seed int64) workload {
	return genZipfMix(seed, serveOps, serveConns, servePutShare, opInsert)
}
