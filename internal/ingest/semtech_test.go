package ingest

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"strings"
	"testing"

	"eflora/internal/lora"
)

func TestPushDataRoundTrip(t *testing.T) {
	eui := [8]byte{0xAA, 1, 2, 3, 4, 5, 6, 0xBB}
	phy := []byte{0x40, 1, 0, 0, 0, 0, 1, 0, 1, 9, 9, 9, 9, 1, 2, 3, 4}
	rx := RXPK{
		Tmst: 123456, Freq: 868.1, Chan: 2, RFCh: 0, Stat: 1,
		Modu: "LORA", Datr: "SF9BW125", Codr: "4/7",
		RSSI: -101, LSNR: -3.5, Size: len(phy),
		Data: base64.StdEncoding.EncodeToString(phy),
	}
	buf, err := EncodePushData(0x1234, eui, []RXPK{rx})
	if err != nil {
		t.Fatal(err)
	}
	p, err := DecodePacket(buf)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != PushData || p.Token != 0x1234 || p.EUI != eui {
		t.Fatalf("decoded header = %+v", p)
	}
	if len(p.RXPK) != 1 {
		t.Fatalf("rxpk = %d, want 1", len(p.RXPK))
	}
	got, err := p.RXPK[0].Payload()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, phy) {
		t.Errorf("payload = %x, want %x", got, phy)
	}
	if p.RXPK[0].LSNR != -3.5 || p.RXPK[0].Datr != "SF9BW125" {
		t.Errorf("metadata = %+v", p.RXPK[0])
	}
	ack, ok := p.Ack()
	if !ok || !bytes.Equal(ack, []byte{2, 0x34, 0x12, PushAck}) {
		t.Errorf("push ack = %x", ack)
	}
}

func TestPullDataAck(t *testing.T) {
	eui := [8]byte{1, 2, 3, 4, 5, 6, 7, 8}
	p, err := DecodePacket(EncodePullData(7, eui))
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != PullData || p.EUI != eui {
		t.Fatalf("decoded = %+v", p)
	}
	ack, ok := p.Ack()
	if !ok || !bytes.Equal(ack, []byte{2, 7, 0, PullAck}) {
		t.Errorf("pull ack = %x", ack)
	}
}

func TestDecodePacketErrors(t *testing.T) {
	cases := [][]byte{
		{},
		{2, 0, 0}, // too short
		{1, 0, 0, PushData, 1, 2, 3, 4, 5, 6, 7, 8}, // wrong version
		{2, 0, 0, PullResp, 1, 2, 3, 4, 5, 6, 7, 8}, // downstream kind
		{2, 0, 0, PushData, 1, 2, 3},                // missing EUI
		append([]byte{2, 0, 0, PushData, 1, 2, 3, 4, 5, 6, 7, 8}, []byte("{not json")...),
	}
	for i, buf := range cases {
		if _, err := DecodePacket(buf); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestParseDatr(t *testing.T) {
	sf, bw, err := ParseDatr("SF7BW125")
	if err != nil || sf != lora.SF7 || bw != 125e3 {
		t.Errorf("SF7BW125 -> %v/%v/%v", sf, bw, err)
	}
	sf, bw, err = ParseDatr("SF12BW500")
	if err != nil || sf != lora.SF12 || bw != 500e3 {
		t.Errorf("SF12BW500 -> %v/%v/%v", sf, bw, err)
	}
	for _, bad := range []string{"", "SF7", "BW125", "SFxBW125", "SF99BW125", "SF7BWx"} {
		if _, _, err := ParseDatr(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	if got := Datr(lora.SF8, 125e3); got != "SF8BW125" {
		t.Errorf("Datr = %q", got)
	}
}

func TestParseCodr(t *testing.T) {
	for codr, want := range map[string]lora.CodingRate{"4/5": lora.CR45, "4/6": lora.CR46, "4/7": lora.CR47, "4/8": lora.CR48} {
		if got, ok := ParseCodr(codr); !ok || got != want {
			t.Errorf("%q -> %v/%v, want %v", codr, got, ok, want)
		}
	}
	for _, bad := range []string{"", "4/", "4", "4/4", "4/9", "4/0", "4/+7", "4/07", "4/-5", "4/55", "4/5 ", " 4/5", "5/5", "4:5", "4/x", "OFF"} {
		if got, ok := ParseCodr(bad); ok {
			t.Errorf("%q accepted as %v", bad, got)
		}
	}
}

func TestPullRespRoundTrip(t *testing.T) {
	phy := []byte{0x60, 1, 0, 0, 0, 0, 1, 0, 0, 3, 0x52, 0x04, 0x00, 9, 9, 9, 9}
	tx := TXPK{
		Tmst: 5_000_000, Freq: 868.3, RFCh: 0, Powe: 14,
		Modu: "LORA", Datr: "SF9BW125", Codr: "4/7", IPol: true,
	}
	tx.SetPayload(phy)
	buf, err := EncodePullResp(0xCAFE, &tx)
	if err != nil {
		t.Fatal(err)
	}
	p, err := DecodeDownstream(buf)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != PullResp || p.Token != 0xCAFE || p.TXPK == nil {
		t.Fatalf("decoded = %+v", p)
	}
	if *p.TXPK != tx {
		t.Errorf("txpk round trip:\n was %+v\n now %+v", tx, *p.TXPK)
	}
	got, err := p.TXPK.Payload()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, phy) {
		t.Errorf("payload = %x, want %x", got, phy)
	}
	// PULL_RESP is not acknowledged with an ACK packet (TX_ACK is separate).
	if _, ok := p.Ack(); ok {
		t.Error("PULL_RESP produced an ack")
	}
}

func TestDecodeDownstreamAcks(t *testing.T) {
	for _, kind := range []byte{PushAck, PullAck} {
		p, err := DecodeDownstream([]byte{2, 0x21, 0x43, kind})
		if err != nil {
			t.Fatal(err)
		}
		if p.Kind != kind || p.Token != 0x4321 {
			t.Errorf("decoded = %+v", p)
		}
	}
	cases := [][]byte{
		{},
		{2, 0, 0},                     // too short
		{1, 0, 0, PullResp, '{', '}'}, // wrong version
		{2, 0, 0, PushData},           // upstream kind
		append([]byte{2, 0, 0, PullResp}, []byte("{oops")...),
	}
	for i, buf := range cases {
		if _, err := DecodeDownstream(buf); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestTxAckRoundTrip(t *testing.T) {
	eui := [8]byte{0xAA, 0x55, 1, 2, 3, 4, 5, 6}

	// Explicit error body.
	buf, err := EncodeTxAck(0x0102, eui, TxErrTooLate)
	if err != nil {
		t.Fatal(err)
	}
	p, err := DecodePacket(buf)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != TxAck || p.Token != 0x0102 || p.EUI != eui {
		t.Fatalf("decoded = %+v", p)
	}
	if p.TxAckErr != TxErrTooLate || p.TxAckOK() {
		t.Errorf("error = %q, ok = %v", p.TxAckErr, p.TxAckOK())
	}
	// TX_ACK is never acknowledged.
	if _, ok := p.Ack(); ok {
		t.Error("TX_ACK produced an ack")
	}

	// Explicit NONE and the legacy empty body both mean success.
	for _, errStr := range []string{TxErrNone, ""} {
		buf, err := EncodeTxAck(9, eui, errStr)
		if err != nil {
			t.Fatal(err)
		}
		p, err := DecodePacket(buf)
		if err != nil {
			t.Fatal(err)
		}
		if !p.TxAckOK() {
			t.Errorf("errStr %q decoded not-ok: %+v", errStr, p)
		}
	}
}

// txAckSpaceBodies are TX_ACK bodies of spaces only. JSON's own four
// whitespace bytes make an empty body, which acknowledges success; any
// other space bytes.TrimSpace would strip is not JSON, so the body is a
// parse error. They also seed FuzzSemtechPushData.
var txAckSpaceBodies = []struct {
	body string
	ok   bool
}{
	{" \t\r\n", true},
	{"\v", false},
	{"\f", false},
	{"\u0085", false},
	{"\u00a0", false},
	{"\u2028", false},
	{" \n\f\t", false},
}

func TestTxAckWhitespaceBody(t *testing.T) {
	hdr := []byte{ProtocolVersion, 9, 0, TxAck, 1, 2, 3, 4, 5, 6, 7, 8}
	for _, c := range txAckSpaceBodies {
		buf := append(append([]byte{}, hdr...), c.body...)
		p, err := DecodePacket(buf)
		if c.ok {
			if err != nil || !p.TxAckOK() {
				t.Errorf("body %q: err = %v, want a successful ack", c.body, err)
			}
		} else if err == nil {
			t.Errorf("body %q decoded as %+v (TxAckOK %v), want a parse error", c.body, p, p.TxAckOK())
		}
		if _, _, err := refDecode(buf); (err == nil) != c.ok {
			t.Errorf("body %q: oracle err = %v, want accept %v", c.body, err, c.ok)
		}
	}
}

func TestStrictKeysRejectsAmbiguity(t *testing.T) {
	eui := [8]byte{1, 2, 3, 4, 5, 6, 7, 8}
	hdr := []byte{2, 0, 0, PushData}
	mk := func(body string) []byte {
		return append(append(append([]byte{}, hdr...), eui[:]...), body...)
	}
	rejected := []string{
		`{"rXpk":[]}`,                     // the kept fuzz crasher: case-variant of a decoded field
		`{"rxpk":[{"DATR":"SF7BW125"}]}`,  // nested case variant
		`{"rxpk":[],"RXPK":[]}`,           // case-folded duplicate
		`{"rxpk":[{"tmst":1,"tmst":2}]}`,  // exact duplicate
		`{"brd":1,"BRD":2}`,               // duplicate of an unmodeled key
		`{"rxpk":[],"stat":{"TIME":"x"}}`, // case variant in the ignored stat object
		// U+017F (ſ) folds with s under bytes.EqualFold, encoding/json's
		// key match, but not under strings.ToLower.
		`{"rxpk":[{"size":3,"ſize":4,"data":"3q2+7w=="}]}`,
		`{"rxpk":[{"rſsi":-80,"lſnr":7}]}`,
	}
	for _, body := range rejected {
		if _, err := DecodePacket(mk(body)); err == nil {
			t.Errorf("ambiguous body %s accepted", body)
		}
	}
	accepted := []string{
		`{"rxpk":[]}`,
		`{"rxpk":[{"tmst":1}],"stat":{"time":"x"}}`,
		`{"jver":1,"rxpk":[]}`, // unknown keys pass
	}
	for _, body := range accepted {
		if _, err := DecodePacket(mk(body)); err != nil {
			t.Errorf("legal body %s rejected: %v", body, err)
		}
	}
	// The same hardening guards the TX_ACK and PULL_RESP paths.
	ackBody := append(append([]byte{2, 0, 0, TxAck}, eui[:]...), []byte(`{"txpk_ack":{"Error":"NONE"}}`)...)
	if _, err := DecodePacket(ackBody); err == nil {
		t.Error("TX_ACK with case-variant key accepted")
	}
	if _, err := DecodeDownstream(append([]byte{2, 0, 0, PullResp}, []byte(`{"tXpk":{}}`)...)); err == nil {
		t.Error("PULL_RESP with case-variant key accepted")
	}
	// The validator's list of protocol spellings covers every field the
	// payload structs decode.
	for _, name := range refProtocolFields {
		if !protocolField([]byte(name)) {
			t.Errorf("payload field %q is not a protocol field", name)
		}
	}
}

// TestDecodePacketIntoAllocBudget pins the warm scratch decode of one
// nsd-live-shaped datagram (a single rxpk): the validator allocates
// nothing, so what remains is json.Unmarshal's own state and the RXPK
// strings it fills.
func TestDecodePacketIntoAllocBudget(t *testing.T) {
	buf, err := EncodePushData(7, [8]byte{0xAA, 0x55, 1, 2, 3, 4, 5, 6}, []RXPK{{
		Tmst: 12_345_678, Freq: 868.1, Chan: 0, Stat: 1,
		Modu: "LORA", Datr: "SF9BW125", Codr: "4/5",
		RSSI: -112.25, LSNR: -4.5, Size: 23,
		Data: base64.StdEncoding.EncodeToString(bytes.Repeat([]byte{0x40}, 23)),
	}})
	if err != nil {
		t.Fatal(err)
	}
	var sc ParseScratch
	if _, err := DecodePacketInto(buf, &sc); err != nil {
		t.Fatal(err)
	}
	const budget = 11
	avg := testing.AllocsPerRun(200, func() {
		if _, err := DecodePacketInto(buf, &sc); err != nil {
			t.Fatal(err)
		}
	})
	if avg > budget {
		t.Errorf("warm DecodePacketInto allocates %v per datagram, budget %d", avg, budget)
	}
}

func TestTXPKPayloadSizeMismatch(t *testing.T) {
	tx := TXPK{Size: 3, Data: base64.StdEncoding.EncodeToString([]byte{1, 2})}
	if _, err := tx.Payload(); err == nil {
		t.Error("size mismatch accepted")
	}
	tx = TXPK{Data: "%%%"}
	if _, err := tx.Payload(); err == nil {
		t.Error("bad base64 accepted")
	}
}

func TestRXPKPayloadSizeMismatch(t *testing.T) {
	rx := RXPK{Size: 3, Data: base64.StdEncoding.EncodeToString([]byte{1, 2})}
	if _, err := rx.Payload(); err == nil {
		t.Error("size mismatch accepted")
	}
	rx = RXPK{Data: "!!!"}
	if _, err := rx.Payload(); err == nil {
		t.Error("bad base64 accepted")
	}
}

// TestDecodePacketIntoScratchReuse runs a mixed datagram sequence through
// one ParseScratch twice over and checks every decode against the
// fresh-storage DecodePacket oracle. The sequence is built to catch the
// two reuse hazards: a second PUSH_DATA whose rxpk objects omit fields
// the first one set (encoding/json would leave the stale values in the
// reused backing array), and kind switches that must not carry RXPK or
// TxAckErr across.
func TestDecodePacketIntoScratchReuse(t *testing.T) {
	eui := [8]byte{9, 8, 7, 6, 5, 4, 3, 2}
	rich, err := EncodePushData(1, eui, []RXPK{
		{Tmst: 11, Time: "2026-01-01T00:00:00Z", Freq: 868.1, Chan: 2, Stat: 1,
			Modu: "LORA", Datr: "SF7BW125", Codr: "4/7", RSSI: -80, LSNR: 3.5,
			Size: 4, Data: "3q2+7w=="},
		{Tmst: 12, Freq: 868.3, Stat: 1, Modu: "LORA", Datr: "SF9BW125",
			Codr: "4/5", RSSI: -95, Size: 4, Data: "3q2+7w=="},
	})
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := EncodePushData(2, eui, []RXPK{
		{Freq: 868.5, Modu: "LORA", Datr: "SF12BW125"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ackErr, err := EncodeTxAck(3, eui, TxErrTooLate)
	if err != nil {
		t.Fatal(err)
	}
	seq := [][]byte{rich, sparse, EncodePullData(4, eui), ackErr, sparse, rich}
	var sc ParseScratch
	for round := 0; round < 2; round++ {
		for i, buf := range seq {
			want, err := DecodePacket(buf)
			if err != nil {
				t.Fatalf("round %d datagram %d: oracle: %v", round, i, err)
			}
			got, err := DecodePacketInto(buf, &sc)
			if err != nil {
				t.Fatalf("round %d datagram %d: scratch: %v", round, i, err)
			}
			if got.Version != want.Version || got.Token != want.Token ||
				got.Kind != want.Kind || got.EUI != want.EUI ||
				got.TxAckErr != want.TxAckErr {
				t.Fatalf("round %d datagram %d header:\n got %+v\nwant %+v", round, i, got, want)
			}
			if len(got.RXPK) != len(want.RXPK) {
				t.Fatalf("round %d datagram %d: %d rxpk, want %d", round, i, len(got.RXPK), len(want.RXPK))
			}
			for j := range want.RXPK {
				if got.RXPK[j] != want.RXPK[j] {
					t.Errorf("round %d datagram %d rxpk %d:\n got %+v\nwant %+v",
						round, i, j, got.RXPK[j], want.RXPK[j])
				}
			}
		}
	}
}

// TestDecodePacketIntoRejectsLikeDecodePacket pins the two entry points
// to the same acceptance set on malformed input, warm scratch included.
func TestDecodePacketIntoRejectsLikeDecodePacket(t *testing.T) {
	eui := [8]byte{1, 1, 2, 2, 3, 3, 4, 4}
	good, err := EncodePushData(9, eui, []RXPK{{Freq: 868.1, Modu: "LORA", Datr: "SF7BW125"}})
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]byte{
		{},
		{2, 0, 0},
		{1, 0, 0, PushData, 0, 0, 0, 0, 0, 0, 0, 0},
		{2, 0, 0, PullResp},
		append([]byte{2, 0, 0, PushData, 0, 0, 0, 0, 0, 0, 0, 0}, `{"rxpk":[`...),
		append([]byte{2, 0, 0, PushData, 0, 0, 0, 0, 0, 0, 0, 0}, `{"rXpk":[]}`...),
	}
	var sc ParseScratch
	if _, err := DecodePacketInto(good, &sc); err != nil { // warm the scratch
		t.Fatal(err)
	}
	for i, buf := range bad {
		if p, err := DecodePacketInto(buf, &sc); err == nil || p != nil {
			t.Errorf("bad datagram %d: scratch decode returned %+v, %v", i, p, err)
		}
		if p, err := DecodePacket(buf); err == nil || p != nil {
			t.Errorf("bad datagram %d: DecodePacket returned %+v, %v", i, p, err)
		}
	}
	// The scratch still decodes cleanly after every rejection.
	if _, err := DecodePacketInto(good, &sc); err != nil {
		t.Fatalf("scratch poisoned by rejected datagrams: %v", err)
	}
}

// TestFailedDecodesDoNotGrowKeyIndex decodes, into one scratch, bodies
// that fail while an object past indexFrom keys has its key index open:
// a fold duplicate, a body that ends after the 33rd key, an overflowing
// number and a syntax error. Repeating a failure must not stack another
// table on the scratch's index, and the next good datagram must start
// from an empty index.
func TestFailedDecodesDoNotGrowKeyIndex(t *testing.T) {
	hdr := []byte{ProtocolVersion, 1, 0, PushData, 1, 2, 3, 4, 5, 6, 7, 8}
	good := append(append([]byte{}, hdr...), `{"rxpk":[]}`...)
	for _, body := range []string{
		`{"rxpk":[],"stat":` + wideObject(40, `"AS":0`) + `}`,
		`{"rxpk":[],"stat":` + strings.TrimSuffix(wideObject(33, ""), "}"),
		`{"rxpk":[],"stat":` + wideObject(40, `"x":1e400`) + `}`,
		`{"rxpk":[],"stat":` + wideObject(40, `"x":}`) + `}`,
	} {
		buf := append(append([]byte{}, hdr...), body...)
		var sc ParseScratch
		n0 := -1
		for i := 0; i < 20; i++ {
			if _, err := DecodePacketInto(buf, &sc); err == nil {
				t.Fatalf("%.40s…: decode succeeded", body)
			}
			if n0 < 0 {
				n0 = len(sc.index)
			}
			if len(sc.index) != n0 {
				t.Fatalf("%.40s…: key index holds %d slots after failed decode %d, %d after the first", body, len(sc.index), i, n0)
			}
		}
		if n0 == 0 {
			t.Fatalf("%.40s…: the decode failed before any key index was built", body)
		}
		if _, err := DecodePacketInto(good, &sc); err != nil {
			t.Fatal(err)
		}
		if len(sc.index) != 0 {
			t.Errorf("%.40s…: %d stale index slots after a good datagram", body, len(sc.index))
		}
	}
}

// TestKeyIndexVerdictsIgnoreSeed decodes the contract bodies through
// scratches with fixed index seeds: the seed only places keys in the
// table, so every verdict and error message must match the one-shot
// decode's.
func TestKeyIndexVerdictsIgnoreSeed(t *testing.T) {
	hdr := []byte{ProtocolVersion, 1, 0, PushData, 1, 2, 3, 4, 5, 6, 7, 8}
	for _, c := range contractBodies {
		buf := append(append([]byte{}, hdr...), c.body...)
		_, want := DecodePacket(buf)
		for _, seed := range []uint64{1, 0x9E3779B97F4A7C15, 1<<64 - 1} {
			sc := ParseScratch{seed: seed}
			_, err := DecodePacketInto(buf, &sc)
			if fmt.Sprint(err) != fmt.Sprint(want) {
				t.Errorf("%s, seed %#x: err = %v, want %v", c.name, seed, err, want)
			}
		}
	}
}

// BenchmarkDecodePushData compares the fresh-storage and scratch-reusing
// decode paths on a realistic 8-uplink PUSH_DATA datagram.
func BenchmarkDecodePushData(b *testing.B) {
	eui := [8]byte{0xAA, 0x55, 1, 2, 3, 4, 5, 6}
	rxpks := make([]RXPK, 8)
	for i := range rxpks {
		rxpks[i] = RXPK{
			Tmst: uint64(1000 * i), Freq: 868.1, Chan: i, Stat: 1,
			Modu: "LORA", Datr: "SF7BW125", Codr: "4/7",
			RSSI: -100, LSNR: 2.5, Size: 4, Data: "3q2+7w==",
		}
	}
	buf, err := EncodePushData(7, eui, rxpks)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodePacket(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scratch", func(b *testing.B) {
		var sc ParseScratch
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodePacketInto(buf, &sc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// hostileKeysDatagram is a PUSH_DATA of 65507 bytes, the largest UDP
// payload, whose stat object holds as many of keys as fit.
func hostileKeysDatagram(keys []string) []byte {
	const size = 65507
	buf := append([]byte{ProtocolVersion, 1, 0, PushData, 1, 2, 3, 4, 5, 6, 7, 8}, `{"rxpk":[],"stat":{`...)
	for i, k := range keys {
		member := fmt.Sprintf(`,"%s":0`, k)
		if i == 0 {
			member = member[1:]
		}
		if len(buf)+len(member)+2 > size {
			return append(buf, "}}"...)
		}
		buf = append(buf, member...)
	}
	panic("hostileKeysDatagram: keys do not fill the datagram")
}

// shortKeys returns n distinct short keys, "k0", "k1", …: about 7700 of
// them fill a datagram.
func shortKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%x", i)
	}
	return keys
}

// fibClusterKeys returns n distinct six-character keys of lower-case
// letters and digits whose FNV-1a hashes h all give (h·0x9E3779B97F4A7C15)>>32
// the same low 16 bits. An index that took that Fibonacci product of
// the unkeyed hash as its home slot would put all of them in one probe
// cluster at every table size up to 65536 slots, a datagram's worth;
// finding them takes a sender about a second offline.
func fibClusterKeys(n int) []string {
	const alpha = "abcdefghijklmnopqrstuvwxyz0123456789"
	const prime = 1099511628211
	slot := func(h uint64) uint64 { return (h * 0x9E3779B97F4A7C15) >> 32 & 0xFFFF }
	keys := make([]string, 0, n)
	var key [6]byte
	var h [7]uint64
	h[0] = 14695981039346656037
	target := uint64(1 << 63) // no slot value yet
	var walk func(d int) bool
	walk = func(d int) bool {
		for _, c := range []byte(alpha) {
			key[d] = c
			h[d+1] = (h[d] ^ uint64(c)) * prime
			if d < len(key)-1 {
				if walk(d + 1) {
					return true
				}
				continue
			}
			if v := slot(h[d+1]); v == target || target == 1<<63 {
				target = v
				if keys = append(keys, string(key[:])); len(keys) == n {
					return true
				}
			}
		}
		return false
	}
	walk(0)
	return keys
}

// BenchmarkDecodeHostileKeys decodes a 65507-byte datagram whose stat
// object holds thousands of keys into a warm scratch: the cost one such
// datagram puts on the daemon's single UDP reader. "distinct" holds
// about 7700 short keys; "fib-cluster" about 5950 keys from
// fibClusterKeys, crafted against an unkeyed Fibonacci-hashed index.
func BenchmarkDecodeHostileKeys(b *testing.B) {
	for _, c := range []struct {
		name string
		keys func() []string
	}{
		{"distinct", func() []string { return shortKeys(8000) }},
		{"fib-cluster", func() []string { return fibClusterKeys(6000) }},
	} {
		buf := hostileKeysDatagram(c.keys())
		b.Run(c.name, func(b *testing.B) {
			var sc ParseScratch
			if _, err := DecodePacketInto(buf, &sc); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := DecodePacketInto(buf, &sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
