package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"unicode/utf8"
)

// .dshz block container layout v1:
//
//	off  size  field
//	0    4     magic "DSHZ"
//	4    2     version (uint16, currently 1)
//	6    1     kind (BlockJSONTokens, BlockJSONRaw)
//	7    1     reserved (must be zero)
//	8    ...   kind-specific payload
//
// BlockJSONTokens re-encodes a canonical JSON document as a token stream
// with a deduplicated key table — compact and cheap to decode, and the
// decode is byte-exact: DecodeResult returns precisely the bytes
// EncodeResult was given. EncodeResult proves that property per document
// (encode, decode, compare) and falls back to BlockJSONRaw on any
// discrepancy, so the round-trip guarantee holds unconditionally — a
// pathological document costs compactness, never correctness.
const (
	blockMagic       = "DSHZ"
	blockHeaderFixed = 8
)

// Block kinds.
const (
	// BlockJSONTokens is a canonical JSON document as a token stream.
	BlockJSONTokens = 1
	// BlockJSONRaw is a canonical JSON document stored verbatim (the
	// self-check fallback).
	BlockJSONRaw = 2
)

// Container errors.
var (
	// ErrBlockMagic means the bytes do not start with the DSHZ magic.
	ErrBlockMagic = errors.New("wire: not a dshz block (bad magic)")
	// ErrBlockVersion means the container version is unsupported.
	ErrBlockVersion = errors.New("wire: unsupported dshz version")
	// ErrBlockKind means the block holds a different payload kind than the
	// decoder expects.
	ErrBlockKind = errors.New("wire: unexpected dshz block kind")
)

// appendBlockHeader writes the container header for the given kind.
func appendBlockHeader(dst []byte, kind uint8) []byte {
	dst = append(dst, blockMagic...)
	dst = binary.LittleEndian.AppendUint16(dst, BlockVersion)
	return append(dst, kind, 0)
}

// blockPayload validates the container header and returns the kind and
// payload bytes.
func blockPayload(b []byte) (uint8, []byte, error) {
	if len(b) < blockHeaderFixed {
		return 0, nil, ErrShortBuffer
	}
	if string(b[0:4]) != blockMagic {
		return 0, nil, ErrBlockMagic
	}
	if v := binary.LittleEndian.Uint16(b[4:]); v != BlockVersion {
		return 0, nil, fmt.Errorf("%w: %d (reader speaks %d)", ErrBlockVersion, v, BlockVersion)
	}
	if b[7] != 0 {
		return 0, nil, fmt.Errorf("%w: nonzero reserved header byte", ErrCorrupt)
	}
	return b[6], b[8:], nil
}

// Token-stream opcodes (BlockJSONTokens payload: a uint32 key count, the
// key table as uvarint-length-prefixed strings, then opcodes until opEnd).
const (
	opEnd      = 0
	opObjBegin = 1
	opObjEnd   = 2
	opArrBegin = 3
	opArrEnd   = 4
	opKey      = 5 // + uvarint key-table index
	opString   = 6 // + uvarint length + bytes (the decoded string)
	opNumber   = 7 // + uvarint length + the literal as it appeared
	opTrue     = 8
	opFalse    = 9
	opNull     = 10
)

// EncodeResult packs a canonical result document (the dshserve
// /results/{key} body: indented JSON with a trailing newline) into a .dshz
// block. The encoding is verified in place — DecodeResult of the returned
// block yields exactly doc, for every input.
func EncodeResult(doc []byte) []byte {
	if payload, err := encodeJSONTokens(doc); err == nil {
		blk := appendBlockHeader(make([]byte, 0, blockHeaderFixed+len(payload)), BlockJSONTokens)
		blk = append(blk, payload...)
		if round, err := DecodeResult(blk); err == nil && bytes.Equal(round, doc) {
			return blk
		}
	}
	blk := appendBlockHeader(make([]byte, 0, blockHeaderFixed+len(doc)), BlockJSONRaw)
	return append(blk, doc...)
}

// DecodeResult reconstructs the exact document bytes from a block written
// by EncodeResult.
func DecodeResult(blk []byte) ([]byte, error) {
	kind, payload, err := blockPayload(blk)
	if err != nil {
		return nil, err
	}
	switch kind {
	case BlockJSONRaw:
		out := make([]byte, len(payload))
		copy(out, payload)
		return out, nil
	case BlockJSONTokens:
		return decodeJSONTokens(payload)
	default:
		return nil, fmt.Errorf("%w: kind %d is not a result document", ErrBlockKind, kind)
	}
}

// encodeJSONTokens tokenizes one canonical document into the opcode
// payload. Any input it cannot faithfully represent returns an error and
// the caller falls back to the raw block.
func encodeJSONTokens(doc []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()

	var (
		ops      []byte
		keys     []string
		keyIdx   = make(map[string]int)
		stack    []byte // 'o' = object, 'a' = array
		isKey    bool   // next string token is an object key
		any      bool   // at least one value seen
		appendOp func(t json.Token) error
	)
	internKey := func(k string) int {
		if i, ok := keyIdx[k]; ok {
			return i
		}
		keyIdx[k] = len(keys)
		keys = append(keys, k)
		return len(keys) - 1
	}
	appendOp = func(t json.Token) error {
		switch v := t.(type) {
		case json.Delim:
			switch v {
			case '{':
				ops = append(ops, opObjBegin)
				stack = append(stack, 'o')
				isKey = true
			case '}':
				ops = append(ops, opObjEnd)
				stack = stack[:len(stack)-1]
			case '[':
				ops = append(ops, opArrBegin)
				stack = append(stack, 'a')
			case ']':
				ops = append(ops, opArrEnd)
				stack = stack[:len(stack)-1]
			}
			// After closing or inside a container, the next string in an
			// object position is a key again.
			isKey = len(stack) > 0 && stack[len(stack)-1] == 'o'
		case string:
			if isKey {
				ops = append(ops, opKey)
				ops = binary.AppendUvarint(ops, uint64(internKey(v)))
				isKey = false
				return nil
			}
			ops = append(ops, opString)
			ops = binary.AppendUvarint(ops, uint64(len(v)))
			ops = append(ops, v...)
			isKey = len(stack) > 0 && stack[len(stack)-1] == 'o'
		case json.Number:
			ops = append(ops, opNumber)
			ops = binary.AppendUvarint(ops, uint64(len(v)))
			ops = append(ops, v...)
			isKey = len(stack) > 0 && stack[len(stack)-1] == 'o'
		case bool:
			if v {
				ops = append(ops, opTrue)
			} else {
				ops = append(ops, opFalse)
			}
			isKey = len(stack) > 0 && stack[len(stack)-1] == 'o'
		case nil:
			ops = append(ops, opNull)
			isKey = len(stack) > 0 && stack[len(stack)-1] == 'o'
		default:
			return fmt.Errorf("wire: unsupported JSON token %T", t)
		}
		return nil
	}
	for {
		t, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if len(stack) == 0 && any {
			return nil, errors.New("wire: multiple top-level JSON values")
		}
		any = true
		if err := appendOp(t); err != nil {
			return nil, err
		}
	}
	if !any || len(stack) != 0 {
		return nil, errors.New("wire: incomplete JSON document")
	}

	payload := binary.LittleEndian.AppendUint32(nil, uint32(len(keys)))
	for _, k := range keys {
		payload = binary.AppendUvarint(payload, uint64(len(k)))
		payload = append(payload, k...)
	}
	payload = append(payload, ops...)
	return append(payload, opEnd), nil
}

// decodeJSONTokens rebuilds the document: replay the opcodes into compact
// JSON (numbers verbatim, strings re-escaped exactly as encoding/json
// does), then re-indent with the canonical two-space indent and trailing
// newline — the same composition json.MarshalIndent uses, so byte equality
// with the original is structural, and EncodeResult verifies it anyway.
func decodeJSONTokens(payload []byte) ([]byte, error) {
	if len(payload) < 4 {
		return nil, ErrShortBuffer
	}
	nKeys := int(binary.LittleEndian.Uint32(payload))
	p := payload[4:]
	readStr := func() (string, error) {
		n, w := binary.Uvarint(p)
		if w <= 0 || uint64(len(p)-w) < n {
			return "", fmt.Errorf("%w: bad string length", ErrCorrupt)
		}
		s := string(p[w : w+int(n)])
		p = p[w+int(n):]
		return s, nil
	}
	keys := make([]string, nKeys)
	for i := range keys {
		k, err := readStr()
		if err != nil {
			return nil, err
		}
		keys[i] = k
	}

	var (
		compact []byte
		stack   []byte
		first   []bool // per container: no element emitted yet
		afterK  bool   // the value being emitted follows a key (no comma)
	)
	sep := func() {
		if afterK {
			afterK = false
			return
		}
		if n := len(stack); n > 0 {
			if first[n-1] {
				first[n-1] = false
			} else {
				compact = append(compact, ',')
			}
		}
	}
	for len(p) > 0 && p[0] != opEnd {
		op := p[0]
		p = p[1:]
		switch op {
		case opObjBegin, opArrBegin:
			sep()
			if op == opObjBegin {
				compact = append(compact, '{')
				stack = append(stack, 'o')
			} else {
				compact = append(compact, '[')
				stack = append(stack, 'a')
			}
			first = append(first, true)
		case opObjEnd, opArrEnd:
			if len(stack) == 0 {
				return nil, fmt.Errorf("%w: container underflow", ErrCorrupt)
			}
			want, ch := stack[len(stack)-1], byte('}')
			if op == opArrEnd {
				ch = ']'
			}
			if (op == opObjEnd) != (want == 'o') {
				return nil, fmt.Errorf("%w: mismatched container close", ErrCorrupt)
			}
			compact = append(compact, ch)
			stack = stack[:len(stack)-1]
			first = first[:len(first)-1]
		case opKey:
			idx, w := binary.Uvarint(p)
			if w <= 0 || idx >= uint64(nKeys) {
				return nil, fmt.Errorf("%w: bad key index", ErrCorrupt)
			}
			p = p[w:]
			sep()
			compact = appendJSONString(compact, keys[idx])
			compact = append(compact, ':')
			afterK = true
		case opString:
			s, err := readStr()
			if err != nil {
				return nil, err
			}
			sep()
			compact = appendJSONString(compact, s)
		case opNumber:
			s, err := readStr()
			if err != nil {
				return nil, err
			}
			sep()
			compact = append(compact, s...)
		case opTrue:
			sep()
			compact = append(compact, "true"...)
		case opFalse:
			sep()
			compact = append(compact, "false"...)
		case opNull:
			sep()
			compact = append(compact, "null"...)
		default:
			return nil, fmt.Errorf("%w: unknown opcode %d", ErrCorrupt, op)
		}
	}
	if len(p) == 0 || p[0] != opEnd || len(p) != 1 {
		return nil, fmt.Errorf("%w: missing or misplaced end opcode", ErrCorrupt)
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("%w: unclosed container", ErrCorrupt)
	}

	var out bytes.Buffer
	out.Grow(2 * len(compact))
	if err := json.Indent(&out, compact, "", "  "); err != nil {
		return nil, err
	}
	out.WriteByte('\n')
	return out.Bytes(), nil
}

// appendJSONString escapes s exactly as encoding/json's encoder does with
// HTML escaping on (the canonical documents are produced by json.Marshal):
// control characters, quotes, backslashes, <, >, &, U+2028/U+2029, and
// invalid UTF-8 all take the same escape forms.
func appendJSONString(dst []byte, s string) []byte {
	const hexDigits = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
