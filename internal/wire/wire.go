// Package wire is the versioned packed binary layout for packets, traces,
// and results — the process boundary of the simulator. Everything in
// memory stays Go structs; everything that leaves the process (trace files,
// binary result blocks, dshserve streaming bodies) goes through the
// fixed-offset little-endian encodings defined here, packed and unpacked in
// place with no reflection, no intermediate structs, and no allocation on
// the hot path.
//
// Three encodings share the package:
//
//   - Packet records (packet.go): one packet as a fixed 48-byte base plus
//     32 bytes per in-band-telemetry hop, written by PackPacket straight
//     from a *packet.Packet. FramePacker/FrameUnpacker wrap a record into a
//     length-prefixed trace frame using the zerocopy headroom idiom: the
//     caller packs the record at FramePacker's FrontHeadroom offset and the
//     frame header is then packed in place in front of it, so one buffer
//     and zero copies produce the full frame.
//
//   - Trace files (trace.go): ".dshtrace" — a fixed header (magic, version,
//     scenario, seed, frame count) followed by length-prefixed frames, one
//     per packet departure. TraceWriter is an eport tracer; TraceReader
//     yields frames with positioned errors (frame index + byte offset) on
//     truncation or corruption.
//
//   - Result blocks (result.go): ".dshz" — a tagged container of one of two
//     kinds, both holding a canonical-JSON document: re-encoded as a token
//     stream (byte-exact round trip, used by dshserve's ?format=wire) or,
//     when the token stream fails its self-check, stored verbatim.
//
// Version negotiation: every artifact leads with a magic string and a
// little-endian uint16 version. Readers accept exactly the versions they
// know (currently 1 everywhere) and reject anything else up front, so a
// future layout change is a version bump, never a silent misparse. All
// reserved bytes must be zero; readers enforce this, which keeps the
// reserved space usable by later versions.
package wire

// Format versions. Each artifact kind versions independently.
const (
	// PacketVersion is the packet-record layout version (see packet.go).
	PacketVersion = 1
	// TraceVersion is the .dshtrace container version (see trace.go).
	TraceVersion = 1
	// BlockVersion is the .dshz container version (see result.go).
	BlockVersion = 1
)
