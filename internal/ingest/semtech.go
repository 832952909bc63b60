// Package ingest is the online half of the network server: it speaks the
// Semtech UDP packet-forwarder protocol to real (or replayed) gateways,
// fans decoded uplinks across a DevAddr-sharded pool of netserver.Server
// instances, flushes dedup windows on the clock, maintains rolling
// per-device link statistics, and periodically hands drifting devices to
// alloc.Incremental for online re-allocation.
package ingest

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"eflora/internal/lora"
	"eflora/internal/slab"
)

// Semtech packet-forwarder protocol (v2) packet identifiers.
const (
	PushData byte = 0x00 // gateway -> server, JSON rxpk/stat payload
	PushAck  byte = 0x01 // server -> gateway
	PullData byte = 0x02 // gateway -> server, keepalive / downlink route
	PullResp byte = 0x03 // server -> gateway, txpk payload
	PullAck  byte = 0x04 // server -> gateway
	TxAck    byte = 0x05 // gateway -> server, downlink result
)

// ProtocolVersion is the packet-forwarder protocol version this codec
// implements.
const ProtocolVersion = 2

// headerLen is version (1) + token (2) + identifier (1); data packets add
// the 8-byte gateway EUI.
const headerLen = 4

// RXPK is one received uplink in a PUSH_DATA JSON payload, mirroring the
// packet forwarder's field names.
type RXPK struct {
	// Tmst is the gateway's internal microsecond counter at RX.
	Tmst uint64 `json:"tmst"`
	// Time is the optional ISO 8601 UTC RX time.
	Time string `json:"time,omitempty"`
	// Freq is the center frequency in MHz.
	Freq float64 `json:"freq"`
	// Chan and RFCh are the concentrator IF and RF chain indices.
	Chan int `json:"chan"`
	RFCh int `json:"rfch"`
	// Stat is the CRC status: 1 = OK, -1 = fail, 0 = no CRC.
	Stat int `json:"stat"`
	// Modu is "LORA" (or "FSK", which this server ignores).
	Modu string `json:"modu"`
	// Datr is the LoRa datarate identifier, e.g. "SF7BW125".
	Datr string `json:"datr"`
	// Codr is the coding rate, e.g. "4/7".
	Codr string `json:"codr"`
	// RSSI is the packet RSSI in dBm, LSNR the packet SNR in dB.
	RSSI float64 `json:"rssi"`
	LSNR float64 `json:"lsnr"`
	// Size is the payload length in bytes; Data its base64 encoding.
	Size int    `json:"size"`
	Data string `json:"data"`
}

// Payload decodes the base64 PHY payload.
func (r *RXPK) Payload() ([]byte, error) {
	b, err := base64.StdEncoding.DecodeString(r.Data)
	if err != nil {
		return nil, fmt.Errorf("ingest: rxpk data: %w", err)
	}
	if r.Size != 0 && r.Size != len(b) {
		return nil, fmt.Errorf("ingest: rxpk size %d != payload %d", r.Size, len(b))
	}
	return b, nil
}

// TXPK is one downlink transmission request in a PULL_RESP JSON payload,
// mirroring the packet forwarder's field names.
type TXPK struct {
	// Imme requests immediate transmission, ignoring Tmst.
	Imme bool `json:"imme,omitempty"`
	// Tmst is the gateway's internal microsecond counter value at which
	// the transmission must start (Class-A window timing).
	Tmst uint64 `json:"tmst,omitempty"`
	// Freq is the TX center frequency in MHz.
	Freq float64 `json:"freq"`
	// RFCh is the concentrator RF chain used for TX.
	RFCh int `json:"rfch"`
	// Powe is the TX output power in dBm.
	Powe float64 `json:"powe,omitempty"`
	// Modu is "LORA" (FSK downlinks are not issued by this server).
	Modu string `json:"modu"`
	// Datr is the LoRa datarate identifier, e.g. "SF12BW125".
	Datr string `json:"datr"`
	// Codr is the coding rate, e.g. "4/7".
	Codr string `json:"codr"`
	// IPol requests inverted polarity (standard for LoRaWAN downlinks so
	// gateways do not lock onto each other's transmissions).
	IPol bool `json:"ipol,omitempty"`
	// Size is the payload length in bytes; Data its base64 encoding.
	Size int    `json:"size"`
	Data string `json:"data"`
}

// Payload decodes the base64 PHY payload.
func (t *TXPK) Payload() ([]byte, error) {
	b, err := base64.StdEncoding.DecodeString(t.Data)
	if err != nil {
		return nil, fmt.Errorf("ingest: txpk data: %w", err)
	}
	if t.Size != 0 && t.Size != len(b) {
		return nil, fmt.Errorf("ingest: txpk size %d != payload %d", t.Size, len(b))
	}
	return b, nil
}

// SetPayload stores the PHY payload (base64 + size).
func (t *TXPK) SetPayload(b []byte) {
	t.Size = len(b)
	t.Data = base64.StdEncoding.EncodeToString(b)
}

// TX_ACK error values (packet-forwarder PROTOCOL.TXT): the downlink's
// fate as judged by the gateway's just-in-time TX queue.
const (
	TxErrNone            = "NONE"
	TxErrTooLate         = "TOO_LATE"
	TxErrTooEarly        = "TOO_EARLY"
	TxErrCollisionPacket = "COLLISION_PACKET"
	TxErrCollisionBeacon = "COLLISION_BEACON"
	TxErrTxFreq          = "TX_FREQ"
	TxErrTxPower         = "TX_POWER"
	TxErrGPSUnlocked     = "GPS_UNLOCKED"
)

// ParseDatr splits a "SF7BW125"-style datarate identifier into spreading
// factor and bandwidth (Hz).
func ParseDatr(datr string) (lora.SF, float64, error) {
	rest, ok := strings.CutPrefix(datr, "SF")
	if !ok {
		return 0, 0, fmt.Errorf("ingest: datr %q: missing SF prefix", datr)
	}
	sfStr, bwStr, ok := strings.Cut(rest, "BW")
	if !ok {
		return 0, 0, fmt.Errorf("ingest: datr %q: missing BW", datr)
	}
	sf, err := strconv.Atoi(sfStr)
	if err != nil || !lora.SF(sf).Valid() {
		return 0, 0, fmt.Errorf("ingest: datr %q: bad SF %q", datr, sfStr)
	}
	bwKHz, err := strconv.ParseFloat(bwStr, 64)
	if err != nil || bwKHz <= 0 {
		return 0, 0, fmt.Errorf("ingest: datr %q: bad BW %q", datr, bwStr)
	}
	return lora.SF(sf), bwKHz * 1e3, nil
}

// ParseCodr maps a packet-forwarder coding-rate identifier, exactly one
// of "4/5", "4/6", "4/7" and "4/8", onto lora.CodingRate; ok is false for
// anything else. It reports failure without an error value, so the
// allocation-free Frontend.Observe path can fall back to its configured
// rate.
func ParseCodr(codr string) (cr lora.CodingRate, ok bool) {
	if len(codr) != 3 || codr[0] != '4' || codr[1] != '/' {
		return 0, false
	}
	cr = lora.CodingRate(codr[2] - '0')
	return cr, cr.Valid()
}

// Datr renders a spreading factor and bandwidth as a datarate identifier.
func Datr(sf lora.SF, bwHz float64) string {
	return fmt.Sprintf("SF%dBW%d", int(sf), int(bwHz/1e3))
}

// pushPayload is the JSON body of a PUSH_DATA packet.
type pushPayload struct {
	RXPK []RXPK `json:"rxpk,omitempty"`
	// Stat (gateway status) is accepted and ignored.
	Stat json.RawMessage `json:"stat,omitempty"`
}

// pullRespPayload is the JSON body of a PULL_RESP packet.
type pullRespPayload struct {
	TXPK TXPK `json:"txpk"`
}

// txAckPayload is the JSON body of a TX_ACK packet.
type txAckPayload struct {
	Ack struct {
		Error string `json:"error"`
	} `json:"txpk_ack"`
}

// protocolField reports whether name is the exact spelling of a JSON
// field the packet path decodes. Every such spelling is lower-case ASCII.
func protocolField(name []byte) bool {
	switch string(name) {
	case "rxpk", "txpk", "stat", "txpk_ack", "error", "tmst", "time", "freq",
		"chan", "rfch", "modu", "datr", "codr", "rssi", "lsnr", "size",
		"data", "imme", "powe", "ipol":
		return true
	}
	return false
}

// maxNesting is encoding/json's nesting limit: a body whose objects and
// arrays nest deeper is rejected by json.Unmarshal.
const maxNesting = 10000

// ParseScratch holds the decode buffers one ingress loop reuses across
// datagrams: the packet value, the PUSH_DATA body with its RXPK slice,
// and the validator's state (a flat frame stack, a shared key stack with
// each key's hashes beside it, replacing a per-object map, a byte arena
// for the keys' lower-cased and unescaped spellings, and a stack of key
// indexes for the objects with more than indexFrom keys, with the random
// seed their slots are keyed on). The Packet returned by DecodePacketInto
// aliases the scratch and is valid until the next decode with the same
// scratch. A zero ParseScratch is ready to use; a scratch serves one
// decode at a time.
type ParseScratch struct {
	pkt    Packet
	push   pushPayload
	frames []vFrame
	keys   []vKey
	hashes []vHash
	kbuf   []byte
	index  []int32
	seed   uint64
}

// vFrame is one open object or array during validation. Object frames
// own the suffix of the key and hash stacks starting at keyLo, popped
// with the frame. Sibling keys dedup by a linear scan of that suffix
// while the object holds at most indexFrom keys, which for
// protocol-sized objects (≤14 keys) beats building any table per '{';
// scanning the hashes first keeps each step to two integer compares.
// Past indexFrom keys the object indexes its keys in an open-addressing
// table of tab slots, the top tab entries of the scratch's index stack
// while the object is the innermost one (an object only gains keys
// then), popped with the frame; tab is 0 before that.
type vFrame struct {
	obj   bool
	keyLo int32
	tab   int32
}

// indexFrom is the number of sibling keys past which an object's key
// dedup switches from the linear scan to its hash index, making a
// hostile object of n keys cost O(n) instead of O(n²).
const indexFrom = 32

// vKey is one object key after unescaping. name aliases the body for a
// key without an escape or a non-ASCII byte and the scratch's key arena
// otherwise; lower is its strings.ToLower spelling, in the arena.
type vKey struct {
	name, lower []byte
}

// vHash holds a key's two fold hashes: FNV-1a of its strings.ToLower
// spelling and of its foldKey spelling. Both are the hash of the
// lower-case spelling for an ASCII key.
type vHash struct {
	lower, fold uint64
}

// validate checks a JSON body in one pass before json.Unmarshal decodes
// it. It accepts exactly what json.Unmarshal's syntax check accepts,
// minus what Go's case-insensitive field matching would resolve
// silently or what its float64 decoding of an untyped value rejects:
//
//   - two keys in one object that match under strings.ToLower or under
//     bytes.EqualFold (encoding/json's own key match), at any depth;
//   - a key that matches a field the packet path decodes under either
//     fold but is not spelled exactly so;
//   - a number, anywhere, that overflows a float64.
//
// Keys compare after unescaping. Objects and arrays nest at most
// maxNesting deep. Keys unknown to the codec still pass — gateways send
// fields this server does not model. The kept FuzzSemtechPushData
// crasher ({"rXpk":[]}) is a case variant.
//
// Warm calls allocate nothing unless a key holds an escape or a non-ASCII
// byte (pinned by TestDecodePacketIntoAllocBudget).
//
//eflora:hotpath
func (sc *ParseScratch) validate(data []byte) error {
	sc.frames, sc.keys, sc.hashes, sc.kbuf, sc.index = sc.frames[:0], sc.keys[:0], sc.hashes[:0], sc.kbuf[:0], sc.index[:0]
	i, key := 0, false
	for {
		// A value starts at i, preceded by its key and ':' when key is set.
		i = skipSpace(data, i)
		if i == len(data) {
			return errJSONEnd
		}
		if key {
			if data[i] != '"' {
				return syntaxError(data, i, "looking for beginning of object key string")
			}
			end, plain, err := scanString(data, i)
			if err != nil {
				return err
			}
			var k vKey
			var fh uint64
			if plain {
				// Both folds agree on ASCII: lower-case the key into the arena.
				lo, upper := len(sc.kbuf), false
				for _, c := range data[i+1 : end-1] {
					if 'A' <= c && c <= 'Z' {
						c += 'a' - 'A'
						upper = true
					}
					sc.kbuf = append(sc.kbuf, c)
				}
				k = vKey{name: data[i+1 : end-1], lower: sc.kbuf[lo:]}
				if upper && protocolField(k.lower) {
					return fmt.Errorf("ingest: JSON key %q mismatches protocol field %q", k.name, k.lower)
				}
			} else {
				//eflora:alloc-ok cold: only a key holding an escape or a non-ASCII byte is unquoted, and no protocol field needs either
				if k, fh, err = sc.coldKey(data[i:end]); err != nil {
					return err
				}
			}
			h := vHash{lower: fnv64(k.lower), fold: fh}
			if plain {
				h.fold = h.lower
			}
			// Both dedup paths report the lowest-numbered matching
			// sibling, so the verdict and its message do not depend on
			// the object's size.
			f := &sc.frames[len(sc.frames)-1]
			if first := int(f.keyLo); f.tab == 0 && len(sc.keys)-first < indexFrom {
				for j, sh := range sc.hashes[first:] {
					if sh.lower != h.lower && sh.fold != h.fold {
						continue
					}
					if s := &sc.keys[first+j]; bytes.Equal(s.lower, k.lower) || bytes.EqualFold(s.name, k.name) {
						return fmt.Errorf("ingest: ambiguous JSON keys %q and %q in one object", s.name, k.name)
					}
				}
			} else if j := sc.indexedSibling(f, k, h); j >= 0 {
				return fmt.Errorf("ingest: ambiguous JSON keys %q and %q in one object", sc.keys[j].name, k.name)
			}
			sc.keys = append(sc.keys, k)
			sc.hashes = append(sc.hashes, h)
			if f.tab > 0 {
				sc.indexKey(f, len(sc.keys)-1)
			}
			if i = skipSpace(data, end); i == len(data) {
				return errJSONEnd
			}
			if data[i] != ':' {
				return syntaxError(data, i, "after object key")
			}
			if i = skipSpace(data, i+1); i == len(data) {
				return errJSONEnd
			}
			key = false
		}
		var err error
		switch c := data[i]; c {
		case '{', '[':
			if len(sc.frames) == maxNesting {
				return fmt.Errorf("ingest: JSON nests deeper than %d", maxNesting)
			}
			sc.frames = append(sc.frames, vFrame{obj: c == '{', keyLo: int32(len(sc.keys))})
			i = skipSpace(data, i+1)
			if i < len(data) && (c == '{' && data[i] == '}' || c == '[' && data[i] == ']') {
				i++
				sc.pop()
				break
			}
			key = c == '{'
			continue
		case '"':
			i, _, err = scanString(data, i)
		case 't':
			i, err = scanLiteral(data, i, "true")
		case 'f':
			i, err = scanLiteral(data, i, "false")
		case 'n':
			i, err = scanLiteral(data, i, "null")
		default:
			i, err = scanNumber(data, i)
		}
		if err != nil {
			return err
		}
		// The value ended: close the containers it completes and step past
		// the comma to the next value (or key).
		for {
			i = skipSpace(data, i)
			n := len(sc.frames)
			if n == 0 {
				if i < len(data) {
					return syntaxError(data, i, "after top-level value")
				}
				return nil
			}
			if i == len(data) {
				return errJSONEnd
			}
			c, obj := data[i], sc.frames[n-1].obj
			if c == '}' && obj || c == ']' && !obj {
				i++
				sc.pop()
				continue
			}
			if c != ',' {
				return syntaxError(data, i, "after a value in an object or array")
			}
			i, key = i+1, obj
			break
		}
	}
}

// pop closes the innermost object or array, dropping an object's keys
// and its key index.
func (sc *ParseScratch) pop() {
	f := sc.frames[len(sc.frames)-1]
	if f.obj {
		sc.keys, sc.hashes = sc.keys[:f.keyLo], sc.hashes[:f.keyLo]
		sc.index = sc.index[:len(sc.index)-int(f.tab)]
	}
	sc.frames = sc.frames[:len(sc.frames)-1]
}

// indexedSibling returns the lowest-numbered earlier key of the
// innermost object f that matches key k (hashes h) under either fold, or
// -1, through f's key index; the first key to find indexFrom siblings
// builds it. A candidate is a key whose lower or fold hash equals k's,
// as in the linear scan, and is confirmed byte by byte.
func (sc *ParseScratch) indexedSibling(f *vFrame, k vKey, h vHash) int {
	if f.tab == 0 {
		sc.reindex(f)
	}
	tab := sc.index[len(sc.index)-int(f.tab):]
	mask := len(tab) - 1
	match := -1
	for _, hv := range [2]uint64{h.lower, h.fold} {
		for p := indexSlot(hv, sc.seed, mask); tab[p] != 0; p = (p + 1) & mask {
			j := int(tab[p]) - 1
			if j > match && match >= 0 {
				continue
			}
			sh, s := sc.hashes[j], &sc.keys[j]
			if (sh.lower == h.lower || sh.fold == h.fold) && (bytes.Equal(s.lower, k.lower) || bytes.EqualFold(s.name, k.name)) {
				match = j
			}
		}
		if h.fold == h.lower {
			break
		}
	}
	return match
}

// indexSlot is the home slot of hash hv in a table of mask+1 slots. It
// runs hv, keyed by the scratch's random seed, through MurmurHash3's
// 64-bit finalizer, in which every input bit reaches every output bit:
// a sender who does not know the seed cannot pick keys that share a
// slot cluster. Keys whose 64-bit hashes are equal still share their
// probe chain; DESIGN.md ("Codec hardening") covers that case.
func indexSlot(hv, seed uint64, mask int) int {
	x := hv ^ seed
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return int(x & uint64(mask))
}

// indexKey adds key j to the innermost object f's index under both of
// its hashes, first doubling the table when the keys would fill more
// than a quarter of it (each key takes up to two slots, so the load
// stays at most one half).
func (sc *ParseScratch) indexKey(f *vFrame, j int) {
	if 4*(j+1-int(f.keyLo)) > int(f.tab) {
		sc.reindex(f)
		return
	}
	tab := sc.index[len(sc.index)-int(f.tab):]
	mask := len(tab) - 1
	h := sc.hashes[j]
	for _, hv := range [2]uint64{h.lower, h.fold} {
		p := indexSlot(hv, sc.seed, mask)
		for tab[p] != 0 {
			p = (p + 1) & mask
		}
		tab[p] = int32(j + 1)
		if h.fold == h.lower {
			break
		}
	}
}

// reindex rebuilds the innermost object f's index, at the top of the
// index stack, with room for eight slots per key it holds, and inserts
// every key. The scratch's first table draws its seed.
func (sc *ParseScratch) reindex(f *vFrame) {
	if sc.seed == 0 {
		sc.seed = maphash.Bytes(maphash.MakeSeed(), nil) | 1
	}
	lo, n := int(f.keyLo), len(sc.keys)-int(f.keyLo)
	size := int32(64)
	for int(size) < 8*n {
		size *= 2
	}
	base := len(sc.index) - int(f.tab)
	sc.index = slices.Grow(sc.index[:base], int(size))[:base+int(size)]
	clear(sc.index[base:])
	f.tab = size
	for j := lo; j < lo+n; j++ {
		sc.indexKey(f, j)
	}
}

// fnv64 is the 64-bit FNV-1a hash of b.
func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// coldKey unquotes a key holding an escape or a non-ASCII byte the way
// encoding/json does (invalid UTF-8 becomes U+FFFD), stores it and its
// strings.ToLower spelling in the key arena, and rejects it if either
// fold maps it onto a protocol field it is not spelled as. It also
// returns the hash of its foldKey spelling.
func (sc *ParseScratch) coldKey(quoted []byte) (vKey, uint64, error) {
	var name string
	if err := json.Unmarshal(quoted, &name); err != nil {
		return vKey{}, 0, err
	}
	lo := len(sc.kbuf)
	sc.kbuf = append(sc.kbuf, name...)
	mid := len(sc.kbuf)
	sc.kbuf = append(sc.kbuf, strings.ToLower(name)...)
	k, fold := vKey{name: sc.kbuf[lo:mid], lower: sc.kbuf[mid:]}, foldKey(name)
	if !protocolField(k.name) && (protocolField(k.lower) || protocolField(fold)) {
		return vKey{}, 0, fmt.Errorf("ingest: JSON key %q mismatches a protocol field", name)
	}
	return k, fnv64(fold), nil
}

// foldKey returns the spelling encoding/json matches keys by:
// bytes.EqualFold(a, b) holds exactly when foldKey(a) == foldKey(b).
// Each rune becomes the smallest rune of its case-fold orbit, lower-cased
// if ASCII, so an ASCII key folds to its lower-case spelling.
func foldKey(name string) []byte {
	out := make([]byte, 0, len(name))
	for _, r := range name {
		least := r
		for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
			if f < least {
				least = f
			}
		}
		if 'A' <= least && least <= 'Z' {
			least += 'a' - 'A'
		}
		out = utf8.AppendRune(out, least)
	}
	return out
}

// skipSpace returns the index of the first byte at or after data[i] that
// is not JSON whitespace (space, tab, CR, LF).
func skipSpace(data []byte, i int) int {
	for ; i < len(data); i++ {
		switch data[i] {
		case ' ', '\t', '\r', '\n':
		default:
			return i
		}
	}
	return i
}

// scanString checks the string literal whose opening quote is data[i]
// and returns the index past its closing quote. plain reports that it
// holds neither an escape nor a byte above 0x7F, so its bytes are its
// value.
func scanString(data []byte, i int) (end int, plain bool, err error) {
	plain = true
	for i++; i < len(data); i++ {
		switch c := data[i]; {
		case c == '"':
			return i + 1, plain, nil
		case c == '\\':
			plain = false
			if i++; i == len(data) {
				return i, false, errJSONEnd
			}
			switch data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4; k++ {
					if i++; i == len(data) {
						return i, false, errJSONEnd
					}
					if !isHex(data[i]) {
						return i, false, syntaxError(data, i, "in \\u hexadecimal character escape")
					}
				}
			default:
				return i, false, syntaxError(data, i, "in string escape code")
			}
		case c < 0x20:
			return i, false, syntaxError(data, i, "in string literal")
		case c >= utf8.RuneSelf:
			plain = false
		}
	}
	return i, false, errJSONEnd
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// scanLiteral checks that data[i:] starts with lit (true, false or null)
// and returns the index past it.
func scanLiteral(data []byte, i int, lit string) (int, error) {
	for k := 0; k < len(lit); k++ {
		if i+k == len(data) {
			return i + k, errJSONEnd
		}
		if data[i+k] != lit[k] {
			return i + k, syntaxError(data, i+k, "in literal "+lit)
		}
	}
	return i + len(lit), nil
}

// scanNumber checks the number literal starting at data[i] and returns
// the index past it. The number must also parse as a float64, as it must
// when json.Unmarshal decodes it into an interface value; the oracle in
// fuzz_test.go requires that of every number. A number below 10^308
// cannot overflow, so strconv.ParseFloat runs only above that bound.
func scanNumber(data []byte, i int) (int, error) {
	start := i
	if data[i] == '-' {
		i++
	}
	intLo := i
	switch {
	case i == len(data):
		return i, errJSONEnd
	case data[i] == '0':
		i++
	case '1' <= data[i] && data[i] <= '9':
		for i++; i < len(data) && isDigit(data[i]); i++ {
		}
	case i == start:
		return i, syntaxError(data, i, "looking for beginning of value")
	default:
		return i, syntaxError(data, i, "in numeric literal")
	}
	intDigits := i - intLo
	if i < len(data) && data[i] == '.' {
		if i++; i == len(data) {
			return i, errJSONEnd
		}
		if !isDigit(data[i]) {
			return i, syntaxError(data, i, "after decimal point in numeric literal")
		}
		for i++; i < len(data) && isDigit(data[i]); i++ {
		}
	}
	exp := 0
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		if i++; i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i == len(data) {
			return i, errJSONEnd
		}
		if !isDigit(data[i]) {
			return i, syntaxError(data, i, "in exponent of numeric literal")
		}
		neg := data[i-1] == '-'
		for ; i < len(data) && isDigit(data[i]); i++ {
			if exp < 1e6 { // saturate far beyond any exponent a float64 takes
				exp = exp*10 + int(data[i]-'0')
			}
		}
		if neg {
			exp = -exp
		}
	}
	// The value is below 10^(intDigits+exp).
	if intDigits+exp > 308 {
		if _, err := strconv.ParseFloat(string(data[start:i]), 64); err != nil {
			return i, fmt.Errorf("ingest: JSON number %s overflows a float64", data[start:i])
		}
	}
	return i, nil
}

// errJSONEnd reports a body that ends inside a value.
var errJSONEnd = errors.New("ingest: unexpected end of JSON input")

// syntaxError reports the byte at data[i] as invalid in the named
// context.
func syntaxError(data []byte, i int, context string) error {
	return fmt.Errorf("ingest: invalid character %q at offset %d %s", data[i], i, context)
}

// strictUnmarshal applies the packet path's hardened JSON decoding: the
// validator first, then the ordinary unmarshal.
func (sc *ParseScratch) strictUnmarshal(data []byte, v any) error {
	if err := sc.validate(data); err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// strictUnmarshal is the one-shot form for cold paths (DecodeDownstream,
// tests): a throwaway scratch per call.
func strictUnmarshal(data []byte, v any) error {
	var sc ParseScratch
	return sc.strictUnmarshal(data, v)
}

// Packet is a decoded packet-forwarder datagram.
type Packet struct {
	Version byte
	Token   uint16
	Kind    byte
	// EUI is the gateway's identifier (PUSH_DATA, PULL_DATA, TX_ACK).
	EUI [8]byte
	// RXPK holds the uplinks of a PUSH_DATA packet.
	RXPK []RXPK
	// TXPK holds the downlink of a PULL_RESP packet (DecodeDownstream).
	TXPK *TXPK
	// TxAckErr is the TX_ACK error value; "" when the datagram carried no
	// JSON body (old forwarders acknowledge success with an empty body).
	TxAckErr string
}

// TxAckOK reports whether a TX_ACK signals a successfully queued
// downlink (no body, or an explicit NONE).
func (p *Packet) TxAckOK() bool { return p.TxAckErr == "" || p.TxAckErr == TxErrNone }

// DecodePacket parses an upstream datagram (PUSH_DATA, PULL_DATA or
// TX_ACK — the kinds a gateway sends) into freshly allocated storage.
// Loops decoding at line rate should hold a ParseScratch and call
// DecodePacketInto instead.
func DecodePacket(buf []byte) (*Packet, error) {
	var sc ParseScratch
	p, err := DecodePacketInto(buf, &sc)
	if err != nil {
		return nil, err
	}
	out := *p
	return &out, nil
}

// DecodePacketInto parses an upstream datagram like DecodePacket, reusing
// the scratch's buffers. The returned Packet and its RXPK slice alias sc
// and are valid until the next decode with the same scratch; callers that
// keep frames across datagrams must copy them out first.
func DecodePacketInto(buf []byte, sc *ParseScratch) (*Packet, error) {
	if len(buf) < headerLen {
		return nil, fmt.Errorf("ingest: datagram too short (%d bytes)", len(buf))
	}
	p := &sc.pkt
	*p = Packet{
		Version: buf[0],
		Token:   uint16(buf[1]) | uint16(buf[2])<<8,
		Kind:    buf[3],
	}
	if p.Version != ProtocolVersion {
		return nil, fmt.Errorf("ingest: protocol version %d (want %d)", p.Version, ProtocolVersion)
	}
	switch p.Kind {
	case PushData, PullData, TxAck:
	default:
		return nil, fmt.Errorf("ingest: unexpected upstream packet kind %#02x", p.Kind)
	}
	if len(buf) < headerLen+8 {
		return nil, fmt.Errorf("ingest: %#02x datagram missing gateway EUI", p.Kind)
	}
	copy(p.EUI[:], buf[headerLen:headerLen+8])
	switch p.Kind {
	case PushData:
		// encoding/json appends array elements into the slice's existing
		// backing array without zeroing it first, so fields absent from
		// this datagram's rxpk objects would leak values from the previous
		// one; clear the full capacity before handing the slice back.
		rx := slab.GrowZero(sc.push.RXPK, cap(sc.push.RXPK))
		sc.push = pushPayload{RXPK: rx[:0]}
		if err := sc.strictUnmarshal(buf[headerLen+8:], &sc.push); err != nil {
			return nil, fmt.Errorf("ingest: PUSH_DATA payload: %w", err)
		}
		p.RXPK = sc.push.RXPK
	case TxAck:
		// The body is optional: success may be an empty datagram, or one
		// of JSON whitespace only. Any other byte goes to the validator,
		// which rejects the non-JSON spaces bytes.TrimSpace would strip.
		if rest := buf[headerLen+8:]; skipSpace(rest, 0) < len(rest) {
			var body txAckPayload
			if err := sc.strictUnmarshal(rest, &body); err != nil {
				return nil, fmt.Errorf("ingest: TX_ACK payload: %w", err)
			}
			p.TxAckErr = body.Ack.Error
		}
	}
	return p, nil
}

// DecodeDownstream parses a server→gateway datagram (PUSH_ACK, PULL_ACK
// or PULL_RESP — the kinds a gateway receives), for the replay load
// generator's simulated gateways and for tests.
func DecodeDownstream(buf []byte) (*Packet, error) {
	if len(buf) < headerLen {
		return nil, fmt.Errorf("ingest: datagram too short (%d bytes)", len(buf))
	}
	p := &Packet{
		Version: buf[0],
		Token:   uint16(buf[1]) | uint16(buf[2])<<8,
		Kind:    buf[3],
	}
	if p.Version != ProtocolVersion {
		return nil, fmt.Errorf("ingest: protocol version %d (want %d)", p.Version, ProtocolVersion)
	}
	switch p.Kind {
	case PushAck, PullAck:
		// Header only.
	case PullResp:
		var body pullRespPayload
		if err := strictUnmarshal(buf[headerLen:], &body); err != nil {
			return nil, fmt.Errorf("ingest: PULL_RESP payload: %w", err)
		}
		p.TXPK = &body.TXPK
	default:
		return nil, fmt.Errorf("ingest: unexpected downstream packet kind %#02x", p.Kind)
	}
	return p, nil
}

// Ack builds the acknowledgement datagram for this packet (PUSH_ACK or
// PULL_ACK); ok is false for kinds that are not acknowledged.
func (p *Packet) Ack() ([]byte, bool) {
	var kind byte
	switch p.Kind {
	case PushData:
		kind = PushAck
	case PullData:
		kind = PullAck
	default:
		return nil, false
	}
	return []byte{ProtocolVersion, byte(p.Token), byte(p.Token >> 8), kind}, true
}

// EncodePushData builds a PUSH_DATA datagram carrying the given uplinks —
// what a gateway (or the replay load generator) sends.
func EncodePushData(token uint16, eui [8]byte, rxpks []RXPK) ([]byte, error) {
	body, err := json.Marshal(pushPayload{RXPK: rxpks})
	if err != nil {
		return nil, fmt.Errorf("ingest: encode rxpk: %w", err)
	}
	out := make([]byte, 0, headerLen+8+len(body))
	out = append(out, ProtocolVersion, byte(token), byte(token>>8), PushData)
	out = append(out, eui[:]...)
	return append(out, body...), nil
}

// EncodePullData builds a PULL_DATA keepalive datagram.
func EncodePullData(token uint16, eui [8]byte) []byte {
	out := make([]byte, 0, headerLen+8)
	out = append(out, ProtocolVersion, byte(token), byte(token>>8), PullData)
	return append(out, eui[:]...)
}

// EncodePullResp builds a PULL_RESP datagram carrying one downlink — what
// the server sends to the gateway's PULL_DATA source address. PULL_RESP
// carries no gateway EUI: the UDP destination selects the gateway.
func EncodePullResp(token uint16, txpk *TXPK) ([]byte, error) {
	body, err := json.Marshal(pullRespPayload{TXPK: *txpk})
	if err != nil {
		return nil, fmt.Errorf("ingest: encode txpk: %w", err)
	}
	out := make([]byte, 0, headerLen+len(body))
	out = append(out, ProtocolVersion, byte(token), byte(token>>8), PullResp)
	return append(out, body...), nil
}

// EncodeTxAck builds a TX_ACK datagram reporting a downlink's fate — what
// a gateway (or a simulated one) sends after a PULL_RESP. The token must
// echo the PULL_RESP's. An empty errStr omits the JSON body (the legacy
// success spelling); TxErrNone reports success explicitly.
func EncodeTxAck(token uint16, eui [8]byte, errStr string) ([]byte, error) {
	out := make([]byte, 0, headerLen+8+48)
	out = append(out, ProtocolVersion, byte(token), byte(token>>8), TxAck)
	out = append(out, eui[:]...)
	if errStr == "" {
		return out, nil
	}
	var body txAckPayload
	body.Ack.Error = errStr
	b, err := json.Marshal(body)
	if err != nil {
		return nil, fmt.Errorf("ingest: encode txpk_ack: %w", err)
	}
	return append(out, b...), nil
}
