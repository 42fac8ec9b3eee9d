package frame

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestOverheadConstantsMatchPaper(t *testing.T) {
	// The paper's stack: max payload 114 B, total overhead l0 = 19 B.
	if MaxPayloadBytes != 114 {
		t.Errorf("MaxPayloadBytes = %d, want 114", MaxPayloadBytes)
	}
	if OverheadBytes != 19 {
		t.Errorf("OverheadBytes = %d, want 19", OverheadBytes)
	}
	if AckOnAirBytes != 11 {
		t.Errorf("AckOnAirBytes = %d, want 11", AckOnAirBytes)
	}
	// A max-payload frame fills the 127-byte MPDU exactly.
	if MACHeaderBytes+MaxPayloadBytes+FCSBytes != MaxMPDUBytes {
		t.Error("max-payload MPDU must be exactly 127 bytes")
	}
}

func TestOnAirBytes(t *testing.T) {
	if got := OnAirBytes(110); got != 129 {
		t.Errorf("OnAirBytes(110) = %d, want 129", got)
	}
	if got := OnAirBytes(0); got != 19 {
		t.Errorf("OnAirBytes(0) = %d, want 19", got)
	}
}

func TestEncodeDecodeDataRoundTrip(t *testing.T) {
	f := DataFrame{
		Seq:     42,
		DestPAN: 0x22,
		Dest:    1,
		Src:     2,
		AMType:  6,
		Payload: []byte("hello wsn link"),
	}
	buf, err := EncodeData(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != MACHeaderBytes+len(f.Payload)+FCSBytes {
		t.Errorf("encoded length = %d", len(buf))
	}
	got, err := DecodeData(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != f.Seq || got.DestPAN != f.DestPAN || got.Dest != f.Dest ||
		got.Src != f.Src || got.AMType != f.AMType ||
		!bytes.Equal(got.Payload, f.Payload) {
		t.Errorf("round trip mismatch: %+v != %+v", got, f)
	}
}

func TestEncodeDataRejectsOversizedPayload(t *testing.T) {
	_, err := EncodeData(DataFrame{Payload: make([]byte, 115)})
	if !errors.Is(err, ErrPayloadTooLarge) {
		t.Errorf("err = %v, want ErrPayloadTooLarge", err)
	}
	// 114 is exactly allowed.
	if _, err := EncodeData(DataFrame{Payload: make([]byte, 114)}); err != nil {
		t.Errorf("114-byte payload should encode, got %v", err)
	}
}

func TestDecodeDataDetectsCorruption(t *testing.T) {
	buf, err := EncodeData(DataFrame{Seq: 7, Payload: []byte{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		corrupted := make([]byte, len(buf))
		copy(corrupted, buf)
		corrupted[i] ^= 0x10
		if _, err := DecodeData(corrupted); err == nil {
			t.Errorf("bit flip at byte %d not detected", i)
		}
	}
}

func TestDecodeDataTooShort(t *testing.T) {
	if _, err := DecodeData(make([]byte, MACHeaderBytes+FCSBytes-1)); !errors.Is(err, ErrTooShort) {
		t.Errorf("err = %v, want ErrTooShort", err)
	}
}

func TestDecodeDataWrongType(t *testing.T) {
	ack := EncodeAck(AckFrame{Seq: 3})
	// Pad the ACK out to data-frame length with a correct FCS so the type
	// check is what fires.
	padded := make([]byte, MACHeaderBytes+FCSBytes)
	copy(padded, ack[:3])
	fcs := CRC16(padded[:len(padded)-FCSBytes])
	padded[len(padded)-2] = byte(fcs)
	padded[len(padded)-1] = byte(fcs >> 8)
	if _, err := DecodeData(padded); !errors.Is(err, ErrBadType) {
		t.Errorf("err = %v, want ErrBadType", err)
	}
}

func TestEncodeDecodeAckRoundTrip(t *testing.T) {
	for seq := 0; seq < 256; seq++ {
		buf := EncodeAck(AckFrame{Seq: uint8(seq)})
		if len(buf) != AckMPDUBytes {
			t.Fatalf("ack length = %d, want %d", len(buf), AckMPDUBytes)
		}
		got, err := DecodeAck(buf)
		if err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
		if got.Seq != uint8(seq) {
			t.Fatalf("seq round trip: got %d want %d", got.Seq, seq)
		}
	}
}

func TestDecodeAckErrors(t *testing.T) {
	if _, err := DecodeAck([]byte{1, 2}); !errors.Is(err, ErrTooShort) {
		t.Errorf("short ack err = %v, want ErrTooShort", err)
	}
	buf := EncodeAck(AckFrame{Seq: 9})
	buf[2]++
	if _, err := DecodeAck(buf); !errors.Is(err, ErrBadFCS) {
		t.Errorf("corrupt ack err = %v, want ErrBadFCS", err)
	}
	// A data frame truncated to 5 bytes with valid FCS should fail the
	// type check.
	data := make([]byte, AckMPDUBytes)
	data[0] = TypeData
	fcs := CRC16(data[:3])
	data[3] = byte(fcs)
	data[4] = byte(fcs >> 8)
	if _, err := DecodeAck(data); !errors.Is(err, ErrBadType) {
		t.Errorf("wrong-type ack err = %v, want ErrBadType", err)
	}
}

func TestCRC16KnownVector(t *testing.T) {
	// CRC-16/CCITT (Kermit-style LSB-first, init 0) of "123456789"
	// is 0x2189.
	if got := CRC16([]byte("123456789")); got != 0x2189 {
		t.Errorf("CRC16 = %#x, want 0x2189", got)
	}
	if got := CRC16(nil); got != 0 {
		t.Errorf("CRC16(nil) = %#x, want 0", got)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seq uint8, am uint8, payload []byte) bool {
		if len(payload) > MaxPayloadBytes {
			payload = payload[:MaxPayloadBytes]
		}
		df := DataFrame{Seq: seq, AMType: am, DestPAN: 0x22, Dest: 1, Src: 2, Payload: payload}
		buf, err := EncodeData(df)
		if err != nil {
			return false
		}
		got, err := DecodeData(buf)
		if err != nil {
			return false
		}
		return got.Seq == seq && got.AMType == am && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeDataCopiesPayload(t *testing.T) {
	buf, err := EncodeData(DataFrame{Payload: []byte{9, 9, 9}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeData(buf)
	if err != nil {
		t.Fatal(err)
	}
	buf[MACHeaderBytes] = 0 // mutate the original buffer
	if got.Payload[0] != 9 {
		t.Error("decoded payload aliases the input buffer")
	}
}

// TestDecodeRejectsForeignHeaders: a frame of the right type whose header
// EncodeData/EncodeAck would never write — other frame control bits, a
// nonzero reserved byte, an MPDU past 127 bytes — is rejected, not decoded
// into a frame that re-encodes to different bytes.
func TestDecodeRejectsForeignHeaders(t *testing.T) {
	withFCS := func(b []byte) []byte {
		fcs := CRC16(b[:len(b)-FCSBytes])
		b[len(b)-2], b[len(b)-1] = byte(fcs), byte(fcs>>8)
		return b
	}
	data, err := EncodeData(DataFrame{Seq: 5, Payload: []byte{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	secured := append([]byte(nil), data...)
	secured[0] |= 1 << 3 // security enabled
	reserved := append([]byte(nil), data...)
	reserved[10] = 1
	for name, buf := range map[string][]byte{"frame control": secured, "reserved byte": reserved} {
		if _, err := DecodeData(withFCS(buf)); !errors.Is(err, ErrBadHeader) {
			t.Errorf("%s: err = %v, want ErrBadHeader", name, err)
		}
	}
	long := withFCS(append(append([]byte(nil), data[:MACHeaderBytes]...), make([]byte, MaxPayloadBytes+1+FCSBytes)...))
	if _, err := DecodeData(long); !errors.Is(err, ErrPayloadTooLarge) {
		t.Errorf("128-byte MPDU: err = %v, want ErrPayloadTooLarge", err)
	}
	ack := EncodeAck(AckFrame{Seq: 9})
	ack[0] |= 1 << 4 // frame pending
	if _, err := DecodeAck(withFCS(ack)); !errors.Is(err, ErrBadHeader) {
		t.Errorf("ack frame control: err = %v, want ErrBadHeader", err)
	}
}
