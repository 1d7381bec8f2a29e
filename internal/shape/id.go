package shape

import (
	"encoding/binary"
	"sync"
)

// ids interns identity keys for the whole process. It grows only when an
// id is asked for, never when a shape is built: a server that builds
// shapes from request input and only prints them (tpf.Pattern.RequestShape)
// adds nothing here.
var ids = struct {
	sync.Mutex
	m map[string]uint32
}{m: make(map[string]uint32)}

var idTrue, idFalse = intern([]byte("⊤")), intern([]byte("⊥"))

// Kind bytes of compound keys: control bytes, which no atom's text begins
// with, so no compound key equals an atom's text.
const (
	kParen byte = iota + 1 // a lone compound argument of ∧ or ∨
	kNot
	kAnd
	kOr
	kMin
	kMax
	kAll
)

// ID returns φ's structural identity, a dense positive integer: ID(a) ==
// ID(b) exactly when a.String() == b.String(). Ids are assigned on first
// ask and memoized on the node, so asking again is one atomic load; they
// are stable for the life of the process, not across processes.
func ID(phi Shape) uint32 {
	n := phi.base()
	if n == nil { // ⊤ and ⊥ carry no memo
		if _, ok := phi.(*True); ok {
			return idTrue
		}
		return idFalse
	}
	if id := n.id.Load(); id != 0 {
		return id
	}
	id := intern(key(phi))
	n.id.Store(id) // racing first asks intern the same key
	return id
}

// key encodes what φ renders: an atom by its text, a compound by a kind
// byte, its own fields and its arguments' ids.
func key(phi Shape) []byte {
	switch x := phi.(type) {
	case *Not:
		return arg([]byte{kNot}, x.X)
	case *And:
		return group(kAnd, x.Xs)
	case *Or:
		return group(kOr, x.Xs)
	case *MinCount:
		return arg(str(binary.AppendVarint([]byte{kMin}, int64(x.N)), x.Path.String()), x.X)
	case *MaxCount:
		return arg(str(binary.AppendVarint([]byte{kMax}, int64(x.N)), x.Path.String()), x.X)
	case *Forall:
		return arg(str([]byte{kAll}, x.Path.String()), x.X)
	}
	return []byte(phi.String())
}

// group keys an ∧ or ∨ as it renders: without arguments as "", with one
// as that argument in argument position.
func group(kind byte, xs []Shape) []byte {
	switch {
	case len(xs) == 0:
		return nil
	case len(xs) == 1 && !compound(xs[0]):
		return key(xs[0])
	case len(xs) == 1:
		kind = kParen
	}
	k := []byte{kind}
	for _, x := range xs {
		k = arg(k, x)
	}
	return k
}

// arg appends φ as rendered in argument position: its id, and whether it
// is parenthesized there.
func arg(k []byte, phi Shape) []byte {
	k = binary.LittleEndian.AppendUint32(k, ID(phi))
	if compound(phi) {
		return append(k, '(')
	}
	return append(k, 0)
}

// compound reports whether φ is parenthesized in argument position.
func compound(phi Shape) bool {
	switch phi.(type) {
	case *And, *Or, *MinCount, *MaxCount, *Forall:
		return true
	}
	return false
}

func str(k []byte, s string) []byte {
	return append(binary.AppendUvarint(k, uint64(len(s))), s...)
}

// intern returns the id of key k, assigning the next one if k is new.
func intern(k []byte) uint32 {
	ids.Lock()
	defer ids.Unlock()
	id, ok := ids.m[string(k)]
	if !ok {
		id = uint32(len(ids.m)) + 1
		ids.m[string(k)] = id
	}
	return id
}
