package ingest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// refStrictUnmarshal is the packet path's JSON decoding as it stood
// before the single-pass validator, kept as the differential oracle: a
// json.Decoder.Token walk applying the key rules, then json.Unmarshal.
// Token decodes every key after unescaping and every number into a
// float64; the Unmarshal checks syntax, nesting depth and trailing data.
// The only change is the fold fix: keys also match under
// strings.EqualFold, encoding/json's own key match, not only under
// strings.ToLower.
func refStrictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	type frame struct {
		obj, expectKey bool
		keys           []string
	}
	var stack []frame
	endValue := func() {
		if n := len(stack); n > 0 && stack[n-1].obj {
			stack[n-1].expectKey = true
		}
	}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case json.Delim:
			switch t {
			case '{':
				stack = append(stack, frame{obj: true, expectKey: true})
			case '[':
				stack = append(stack, frame{})
			default:
				stack = stack[:len(stack)-1]
				endValue()
			}
		case string:
			if n := len(stack); n > 0 && stack[n-1].obj && stack[n-1].expectKey {
				f := &stack[n-1]
				for _, k := range f.keys {
					if refSameKey(k, t) {
						return fmt.Errorf("ambiguous JSON keys %q and %q in one object", k, t)
					}
				}
				f.keys = append(f.keys, t)
				for _, field := range refProtocolFields {
					if t != field && refSameKey(t, field) {
						return fmt.Errorf("JSON key %q mismatches protocol field %q", t, field)
					}
				}
				f.expectKey = false
				continue
			}
			endValue()
		default: // number, bool, null
			endValue()
		}
	}
	return json.Unmarshal(data, v)
}

// refSameKey is the oracle's key match: either fold says the same.
func refSameKey(a, b string) bool {
	return strings.ToLower(a) == strings.ToLower(b) || strings.EqualFold(a, b)
}

// refProtocolFields lists the JSON field names of every payload the
// packet path decodes, read from the struct tags.
var refProtocolFields = jsonFieldNames(nil,
	reflect.TypeOf(pushPayload{}), reflect.TypeOf(pullRespPayload{}), reflect.TypeOf(txAckPayload{}))

func jsonFieldNames(out []string, types ...reflect.Type) []string {
	for _, t := range types {
		for t.Kind() == reflect.Slice || t.Kind() == reflect.Pointer {
			t = t.Elem()
		}
		if t.Kind() != reflect.Struct {
			continue
		}
		for i := 0; i < t.NumField(); i++ {
			name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
			out = jsonFieldNames(append(out, name), t.Field(i).Type)
		}
	}
	return out
}

// refDecode decodes an upstream datagram's body with the oracle: the
// uplinks of a PUSH_DATA, the error of a TX_ACK. The header rules are
// DecodePacketInto's.
func refDecode(data []byte) (rx []RXPK, ackErr string, err error) {
	if len(data) < headerLen+8 || data[0] != ProtocolVersion {
		return nil, "", fmt.Errorf("bad header")
	}
	body := data[headerLen+8:]
	switch data[3] {
	case PushData:
		var p pushPayload
		err = refStrictUnmarshal(body, &p)
		return p.RXPK, "", err
	case TxAck:
		if len(bytes.Trim(body, " \t\r\n")) == 0 {
			return nil, "", nil
		}
		var a txAckPayload
		err = refStrictUnmarshal(body, &a)
		return nil, a.Ack.Error, err
	case PullData:
		return nil, "", nil
	}
	return nil, "", fmt.Errorf("kind %#02x", data[3])
}

// contractBodies pins one PUSH_DATA body per rule of the validator's
// contract with the verdict both decoders must give it; they seed
// FuzzSemtechPushData.
var contractBodies = []struct {
	name, body string
	accept     bool
}{
	{"nesting-10000", `{"stat":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`, true},
	{"nesting-10001", `{"stat":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`, false},
	{"overflow-ignored", `{"rxpk":[],"stat":{"x":1e400}}`, false},
	{"underflow-ignored", `{"rxpk":[],"stat":{"x":1e-400}}`, true},
	{"tmst-max", `{"rxpk":[{"tmst":18446744073709551615}]}`, true},
	{"tmst-overflow", `{"rxpk":[{"tmst":18446744073709551616}]}`, false},
	{"trailing-value", `{"rxpk":[]}{}`, false},
	{"leading-bom", "\xef\xbb\xbf{\"rxpk\":[]}", false},
	{"escaped-key", `{"r\u0078pk":[{"size":4,"data":"3q2+7w=="}]}`, true},
	{"escaped-key-duplicate", `{"rxpk":[],"r\u0078pk":[]}`, false},
	{"invalid-utf8-data", "{\"rxpk\":[{\"data\":\"\xff\xfe\"}]}", true},
	{"null-body", `null`, true},
	{"null-rxpk", `{"rxpk":null}`, true},
	{"null-element", `{"rxpk":[null]}`, true},
	{"long-s-duplicate", `{"rxpk":[{"size":3,"ſize":4,"data":"3q2+7w=="}]}`, false},
	{"long-s-variant", `{"rxpk":[{"rſsi":-80,"lſnr":7}]}`, false},
	{"dotted-capital-i", `{"rxpk":[],"stat":{"tİme":"x"}}`, false},
	{"kelvin-variant", "{\"rxp\u212a\":[]}", false},
	{"fold-only-duplicate", `{"rxpk":[],"stat":{"ſ":1,"S":2}}`, false},
	{"lower-only-duplicate", `{"rxpk":[],"stat":{"İ":1,"i":2}}`, false},
	{"distinct-wide-keys", `{"rxpk":[],"stat":{"é":1,"è":2,"\u00e9x":3}}`, true},
	{"40-keys-fold-duplicate", `{"rxpk":[],"stat":` + wideObject(40, `"AS":0`) + `}`, false},
	{"2000-keys-fold-duplicate", `{"rxpk":[],"stat":` + wideObject(2000, `"AS":0`) + `}`, false},
	{"2000-keys-distinct", `{"rxpk":[],"stat":` + wideObject(2000, "") + `}`, true},
	{"nested-wide-objects", `{"rxpk":[],"stat":` + wideObject(40, `"in":`+wideObject(40, "")+`,"k40":0`) + `}`, true},
	{"nested-wide-duplicate-after-inner", `{"rxpk":[],"stat":` + wideObject(40, `"in":`+wideObject(40, "")+`,"K39":0`) + `}`, false},
}

// wideObject renders an object of n keys, "aſ" then "k1", "k2", …, with
// last, when not empty, as one more member. "AS" matches "aſ" under
// bytes.EqualFold but not under strings.ToLower, so it is the fold-only
// duplicate of the object's first key.
func wideObject(n int, last string) string {
	var b strings.Builder
	b.WriteString(`{"aſ":0`)
	for i := 1; i < n; i++ {
		fmt.Fprintf(&b, `,"k%d":0`, i)
	}
	if last != "" {
		b.WriteString("," + last)
	}
	b.WriteByte('}')
	return b.String()
}

// TestValidatorContract checks each contract body's verdict on both the
// validator and the oracle.
func TestValidatorContract(t *testing.T) {
	hdr := []byte{ProtocolVersion, 1, 0, PushData, 1, 2, 3, 4, 5, 6, 7, 8}
	for _, c := range contractBodies {
		buf := append(append([]byte{}, hdr...), c.body...)
		if _, err := DecodePacket(buf); (err == nil) != c.accept {
			t.Errorf("%s: DecodePacket err = %v, want accept %v", c.name, err, c.accept)
		}
		if _, _, err := refDecode(buf); (err == nil) != c.accept {
			t.Errorf("%s: oracle err = %v, want accept %v", c.name, err, c.accept)
		}
	}
}

// FuzzSemtechPushData feeds arbitrary datagrams to the packet-forwarder
// codec, once into fresh storage and once into a scratch shared across
// all inputs, and to refDecode, the oracle. Any input may be rejected,
// but none may panic; both codec decodes must give the oracle's verdict
// and, on acceptance, its uplinks and TX_ACK error. Inputs that decode
// must satisfy the protocol invariants, acknowledge with a token-echoing
// ACK, and survive an encode/decode round trip losslessly.
func FuzzSemtechPushData(f *testing.F) {
	eui := [8]byte{0xAA, 0x55, 1, 2, 3, 4, 5, 6}
	valid, err := EncodePushData(0xBEEF, eui, []RXPK{{
		Tmst: 123456, Freq: 868.1, Chan: 2, RFCh: 0, Stat: 1,
		Modu: "LORA", Datr: "SF7BW125", Codr: "4/7",
		RSSI: -102, LSNR: 5.5, Size: 4, Data: "3q2+7w==",
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(EncodePullData(0x1234, eui))
	f.Add([]byte{ProtocolVersion, 0, 0, PushData})                                                         // missing EUI
	f.Add([]byte{1, 0, 0, PushData, 0, 0, 0, 0, 0, 0, 0, 0})                                               // wrong version
	f.Add(append([]byte{ProtocolVersion, 9, 9, PushData, 0, 0, 0, 0, 0, 0, 0, 0}, []byte(`{"rxpk":[`)...)) // bad JSON
	f.Add(append([]byte{ProtocolVersion, 1, 0, TxAck, 1, 2, 3, 4, 5, 6, 7, 8}, []byte(`{"txpk_ack":{}}`)...))
	for _, body := range txAckSpaceBodies {
		f.Add(append([]byte{ProtocolVersion, 1, 0, TxAck, 1, 2, 3, 4, 5, 6, 7, 8}, body.body...))
	}
	for _, c := range contractBodies {
		f.Add(append([]byte{ProtocolVersion, 2, 0, PushData, 1, 2, 3, 4, 5, 6, 7, 8}, c.body...))
	}

	var scratch ParseScratch
	f.Fuzz(func(t *testing.T, data []byte) {
		wantRX, wantAck, wantErr := refDecode(data)
		p, err := DecodePacket(data)
		ps, errS := DecodePacketInto(data, &scratch)
		for _, d := range []struct {
			name string
			p    *Packet
			err  error
		}{{"fresh", p, err}, {"scratch", ps, errS}} {
			if (d.err == nil) != (wantErr == nil) {
				t.Fatalf("%s decode disagrees with the oracle: err=%v, oracle err=%v", d.name, d.err, wantErr)
			}
			if d.err != nil {
				if d.p != nil {
					t.Fatalf("%s decode: non-nil packet alongside error %v", d.name, d.err)
				}
				continue
			}
			if d.p.TxAckErr != wantAck || len(d.p.RXPK) != len(wantRX) {
				t.Fatalf("%s decode diverges from the oracle:\n got %+v\nwant rxpk %+v, txack %q", d.name, d.p, wantRX, wantAck)
			}
			for i := range wantRX {
				if d.p.RXPK[i] != wantRX[i] {
					t.Fatalf("%s decode rxpk %d:\n got %+v\nwant %+v", d.name, i, d.p.RXPK[i], wantRX[i])
				}
			}
		}
		if err != nil {
			return
		}
		if ps.Version != p.Version || ps.Token != p.Token || ps.Kind != p.Kind || ps.EUI != p.EUI {
			t.Fatalf("scratch header diverges:\nfresh   %+v\nscratch %+v", p, ps)
		}
		if p.Version != ProtocolVersion {
			t.Fatalf("decoded version %d", p.Version)
		}
		switch p.Kind {
		case PushData, PullData, TxAck:
		default:
			t.Fatalf("decoded unexpected kind %#02x", p.Kind)
		}
		if ack, ok := p.Ack(); ok {
			if len(ack) != 4 || ack[0] != ProtocolVersion {
				t.Fatalf("malformed ack % x", ack)
			}
			if tok := uint16(ack[1]) | uint16(ack[2])<<8; tok != p.Token {
				t.Fatalf("ack token %#04x, want %#04x", tok, p.Token)
			}
		} else if p.Kind != TxAck {
			t.Fatalf("kind %#02x not acknowledged", p.Kind)
		}
		if p.Kind != PushData {
			return
		}
		// Re-encoding the decoded uplinks and decoding again must be
		// lossless: same token, gateway and rxpk fields.
		re, err := EncodePushData(p.Token, p.EUI, p.RXPK)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		p2, err := DecodePacket(re)
		if err != nil {
			t.Fatalf("decode of re-encoded PUSH_DATA: %v", err)
		}
		// nil and empty RXPK are the same protocol state (no uplinks):
		// omitempty drops an empty list on encode, so compare by content.
		if p2.Token != p.Token || p2.EUI != p.EUI || len(p2.RXPK) != len(p.RXPK) ||
			(len(p.RXPK) > 0 && !reflect.DeepEqual(p2.RXPK, p.RXPK)) {
			t.Fatalf("round trip changed packet:\n was %+v\n now %+v", p, p2)
		}
	})
}

// FuzzTXPK feeds arbitrary downstream datagrams to the PULL_RESP/TXPK
// codec. Any input may be rejected, but none may panic; a PULL_RESP that
// decodes must carry a TXPK and survive an encode/decode round trip
// losslessly, token included.
func FuzzTXPK(f *testing.F) {
	valid, err := EncodePullResp(0xBEEF, &TXPK{
		Tmst: 5_000_000, Freq: 869.525, RFCh: 0, Powe: 14,
		Modu: "LORA", Datr: "SF12BW125", Codr: "4/7", IPol: true,
		Size: 4, Data: "3q2+7w==",
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{ProtocolVersion, 0x34, 0x12, PushAck})
	f.Add([]byte{ProtocolVersion, 0x34, 0x12, PullAck})
	f.Add([]byte{ProtocolVersion, 0, 0, PullResp})                                   // missing body
	f.Add(append([]byte{ProtocolVersion, 9, 9, PullResp}, []byte(`{"txpk":{`)...))   // bad JSON
	f.Add(append([]byte{ProtocolVersion, 9, 9, PullResp}, []byte(`{"tXpk":{}}`)...)) // ambiguous key
	f.Add(append([]byte{ProtocolVersion, 0, 1, PullResp}, []byte(`{"txpk":{"imme":true,"freq":868.1,"rfch":0,"modu":"LORA","datr":"SF7BW125","codr":"4/5","size":0,"data":""}}`)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeDownstream(data)
		if err != nil {
			if p != nil {
				t.Fatalf("non-nil packet alongside error %v", err)
			}
			return
		}
		if p.Version != ProtocolVersion {
			t.Fatalf("decoded version %d", p.Version)
		}
		switch p.Kind {
		case PushAck, PullAck:
			return
		case PullResp:
		default:
			t.Fatalf("decoded unexpected kind %#02x", p.Kind)
		}
		if p.TXPK == nil {
			t.Fatal("PULL_RESP without TXPK")
		}
		re, err := EncodePullResp(p.Token, p.TXPK)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		p2, err := DecodeDownstream(re)
		if err != nil {
			t.Fatalf("decode of re-encoded PULL_RESP: %v", err)
		}
		if p2.Token != p.Token || p2.TXPK == nil || *p2.TXPK != *p.TXPK {
			t.Fatalf("round trip changed packet:\n was %+v\n now %+v", p, p2)
		}
	})
}

// FuzzParseDatr checks the datarate identifier parser never panics and
// that accepted identifiers round-trip through Datr for the canonical
// spelling.
func FuzzParseDatr(f *testing.F) {
	for _, s := range []string{"SF7BW125", "SF12BW500", "SF6BW125", "BW125", "SFxBW1", "SF9BW0", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sf, bw, err := ParseDatr(s)
		if err != nil {
			return
		}
		if !sf.Valid() || bw <= 0 {
			t.Fatalf("ParseDatr(%q) accepted sf=%d bw=%v", s, sf, bw)
		}
		if sf2, bw2, err := ParseDatr(Datr(sf, bw)); err != nil || sf2 != sf {
			t.Fatalf("canonical %q re-parse: sf=%d bw=%v err=%v", Datr(sf, bw), sf2, bw2, err)
		}
	})
}
