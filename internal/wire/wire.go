// Package wire implements NRMI's serialization substrate: an
// identity-preserving binary codec for arbitrary Go object graphs,
// self-describing wherever the reader cannot know the type. It plays
// the role Java Serialization plays for RMI/NRMI — including the hook the
// paper taps to obtain the linear map of reachable objects "almost for free"
// during (de)serialization (Section 5.2.1 and optimization 1 of 5.2.4).
//
// Aliasing and cycles are preserved exactly: the first time an object
// (pointer, map, or slice) is encountered it is assigned the next object ID
// and encoded inline; later encounters encode a back-reference to that ID.
// Decoding reproduces an isomorphic graph and assigns the same IDs in the
// same order, so the encoder-side and decoder-side linear maps correspond
// positionally without the map ever crossing the wire.
//
// Two engines are provided, mirroring the paper's JDK 1.3 / JDK 1.4 split:
//
//   - EngineV1 is deliberately naive: fixed-width integers, type names and
//     struct field names written inline on every occurrence, no string
//     interning, and every slot described. It stands in for the layered,
//     verbose JDK 1.3 serialization the paper benchmarks against.
//   - EngineV2 is the optimized engine: varint scalars, a per-stream type
//     table, and a descriptor only where the reader cannot know the type —
//     at each top-level value and under interface slots; every statically
//     typed slot travels bare, vouched for by the layout fingerprint of the
//     described type above it (layout.go). It stands in for JDK 1.4's
//     flattened, Unsafe-accelerated serialization.
//
// Both formats are coded by one implementation, the per-type kernels of
// kernel.go; the format is a mode of them. So is the paper's "portable"
// baseline (Options.DisablePlanCache, and always V1): a kernel compiled
// afresh from raw reflection for every struct value instead of once per type.
//
// EngineV3 is not a third format: it is V2's bytes, decoded into an Arena.
//
// Either engine builds a message as one byte slice, as a decoder reads one:
// an Encoder appends, and Flush hands the message to its destination in one
// Write.
//
// The codec also supports the seeded-object protocol used by the restore
// phase: an endpoint may pre-assign IDs to objects it already holds
// (Encoder.SeedDecoded / Decoder.SeedDetached) and then exchange bare content
// records for those IDs (EncodeSeededContent / DecodeSeededContent),
// resolving references to seeded IDs against the local originals.
package wire

import (
	"errors"
	"fmt"
	"reflect"

	"nrmi/internal/graph"
)

// Engine selects the codec implementation generation.
type Engine byte

const (
	// EngineV1 is the naive, verbose engine (the JDK 1.3 stand-in).
	EngineV1 Engine = 1
	// EngineV2 is the optimized engine (the JDK 1.4 stand-in).
	EngineV2 Engine = 2
	// EngineV3 is EngineV2 with an arena: an encoder writes V2's bytes, and
	// a decoder configured with it takes each new pointer object and
	// non-empty slice from a per-decoder Arena instead of allocating it
	// alone. It is a local allocation policy, not a format: the stream
	// names V2, and the peer may be configured either way. A content
	// record's temporary never comes from the arena. An object carved from
	// the arena shares its allocation with its neighbours, so
	// runtime.SetFinalizer on it is a fatal error.
	EngineV3 Engine = 3
)

// String returns the engine name.
func (e Engine) String() string {
	switch e {
	case EngineV1:
		return "v1"
	case EngineV2:
		return "v2"
	case EngineV3:
		return "v3"
	default:
		return fmt.Sprintf("Engine(%d)", byte(e))
	}
}

// valid reports whether e names an implemented engine (zero is accepted as
// "default" by Options.withDefaults, not here).
func (e Engine) valid() bool {
	return e == EngineV1 || e == EngineV2 || e == EngineV3
}

// knownAccess reports whether a names an access mode: the stream header
// carries no other.
func knownAccess(a graph.AccessMode) bool {
	return a == graph.AccessExported || a == graph.AccessUnsafe
}

// Errors reported by the codec.
var (
	// ErrTypeNotRegistered is reported when a named type crosses the wire
	// without having been registered on the relevant Registry.
	ErrTypeNotRegistered = errors.New("wire: type not registered")

	// ErrBadStream is reported when the byte stream is structurally invalid.
	ErrBadStream = errors.New("wire: corrupted or incompatible stream")

	// ErrLayout is reported when a V2 stream describes a named type whose
	// layout fingerprint differs from this endpoint's: the two ends bind the
	// wire name to types a reader of bare slots would parse differently.
	ErrLayout = fmt.Errorf("%w: type layout differs between the endpoints", ErrBadStream)

	// ErrLimit is reported, before anything is allocated, when a length field
	// names more than the bytes that follow it can carry: a corrupted or
	// hostile stream.
	ErrLimit = errors.New("wire: stream exceeds size limits")

	// ErrUnknownEngine is reported when Options.Engine names no implemented
	// engine: from the first encode on a misconfigured Encoder, instead of
	// silently falling through to whatever behaviour an unknown engine value
	// happened to produce.
	ErrUnknownEngine = errors.New("wire: unknown engine")

	// ErrUnknownAccess is reported, the same way, when Options.Access names
	// no access mode.
	ErrUnknownAccess = errors.New("wire: unknown access mode")
)

// Options configures an Encoder or Decoder.
type Options struct {
	// Engine selects V1, V2 or V3. Decoders learn the format from the
	// stream header; for them the field only says whether new objects come
	// from an arena (EngineV3). Default: EngineV2.
	Engine Engine

	// Access selects struct-field visibility. Encoders stamp the mode into
	// the header so both endpoints traverse identical field sets. Default:
	// AccessExported.
	Access graph.AccessMode

	// Registry resolves named types. Default: the package-level default
	// registry.
	Registry *Registry

	// DisablePlanCache models the paper's "portable" NRMI implementation
	// (plain reflection) against the "optimized" one (aggressively cached
	// reflection metadata, Section 5.3.1): the codec compiles each struct
	// value's kernel afresh from raw reflection instead of taking the cached
	// one, and recomputes layout fingerprints the same way. The bytes are
	// those of the cached codec. Engine V1 never caches regardless of this
	// flag.
	DisablePlanCache bool
}

// withDefaults returns a copy of o with zero fields replaced by defaults.
func (o Options) withDefaults() Options {
	if o.Engine == 0 {
		o.Engine = EngineV2
	}
	if o.Registry == nil {
		o.Registry = DefaultRegistry()
	}
	return o
}

// encoderDefaults is withDefaults for an Encoder: under engine V3 it writes
// the V2 format, so it is configured as a V2 encoder.
func (o Options) encoderDefaults() Options {
	if o = o.withDefaults(); o.Engine == EngineV3 {
		o.Engine = EngineV2
	}
	return o
}

// Stream header bytes. The engine byte is a format id: V1 writes its Engine
// value, V2 (and V3, which writes V2's bytes) formatV2 — 2 was the V2 format
// that described every value, which a decoder now refuses as an unknown
// engine, the way a peer that still speaks it refuses formatV2; 3 was the
// retired flat format, refused the same way.
const (
	headerMagic = 0x4E // 'N' for NRMI
	formatV2    = 4
)

// Value tags: the first byte of every described value. Under V2 a slot
// whose static type is not an interface travels bare: a pointer, map or slice
// as tagNil, tagRef or its own tag and contents with no descriptor; a struct,
// array or scalar as its contents alone.
const (
	tagNil    byte = 0 // nil pointer, map, slice, or interface
	tagRef    byte = 1 // back-reference: uvarint object ID
	tagPtr    byte = 2 // new pointer object: type desc, pointee value
	tagMap    byte = 3 // new map object: type desc, uvarint count, key/value pairs
	tagSlice  byte = 4 // new slice object: type desc, uvarint len, elements
	tagStruct byte = 5 // inline struct: type desc, fields (per engine plan)
	tagArray  byte = 6 // inline array: type desc, elements
	tagScalar byte = 7 // scalar: type desc, payload by kind
)

// tagOf returns the value tag a kind travels under, or 0 for kinds with none
// of their own (interfaces, unserializable kinds).
func tagOf(kind reflect.Kind) byte {
	switch kind {
	case reflect.Ptr:
		return tagPtr
	case reflect.Map:
		return tagMap
	case reflect.Slice:
		return tagSlice
	case reflect.Struct:
		return tagStruct
	case reflect.Array:
		return tagArray
	}
	if _, scalar := kindTypes[kind]; scalar {
		return tagScalar
	}
	return 0
}

// Content-record kind bytes for the seeded-object protocol.
const (
	contentPtr   byte = 0x50
	contentMap   byte = 0x51
	contentSlice byte = 0x52
)
