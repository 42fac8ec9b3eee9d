// Package frame implements the IEEE 802.15.4 frame layout used by the
// TinyOS CC2420 stack in the paper. It provides real byte-level encoding and
// decoding (including the CRC-16 FCS the radio computes in hardware) plus
// the overhead accounting that the paper's models depend on:
//
//	on-air frame = PHY SHR (4 B preamble + 1 B SFD)
//	             + PHY PHR (1 B length)
//	             + MAC header (11 B: FCF 2, DSN 1, dest PAN 2, dest 2,
//	               src 2, AM type 1, padding/IE 1)
//	             + payload (l_D, up to 114 B)
//	             + FCS (2 B)
//
// The MPDU (what the PHR length counts) is MAC header + payload + FCS, at
// most 127 bytes, which is exactly why the paper's maximum payload is
// 114 bytes: 127 − 11 − 2 = 114. Total on-air overhead l0 is 19 bytes.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Size constants (bytes).
const (
	// PHYHeaderBytes is preamble(4) + SFD(1) + PHR(1).
	PHYHeaderBytes = 6
	// MACHeaderBytes is the TinyOS CC2420 active-message MAC header.
	MACHeaderBytes = 11
	// FCSBytes is the 16-bit frame check sequence.
	FCSBytes = 2
	// OverheadBytes is the paper's l0: every on-air byte that is not
	// application payload.
	OverheadBytes = PHYHeaderBytes + MACHeaderBytes + FCSBytes // 19
	// MaxMPDUBytes is the 802.15.4 PSDU limit.
	MaxMPDUBytes = 127
	// MaxPayloadBytes is the paper's maximum payload (114 B).
	MaxPayloadBytes = MaxMPDUBytes - MACHeaderBytes - FCSBytes
	// AckMPDUBytes is the immediate-ACK MPDU (FCF 2 + DSN 1 + FCS 2).
	AckMPDUBytes = 5
	// AckOnAirBytes is the full ACK frame including the PHY header.
	AckOnAirBytes = PHYHeaderBytes + AckMPDUBytes // 11
)

// Frame type values from the 802.15.4 frame control field.
const (
	TypeData uint8 = 1
	TypeAck  uint8 = 2
)

// Errors returned by the decoder.
var (
	ErrPayloadTooLarge = errors.New("frame: payload exceeds 114 bytes")
	ErrTooShort        = errors.New("frame: buffer shorter than MAC header + FCS")
	ErrBadFCS          = errors.New("frame: FCS check failed")
	ErrBadType         = errors.New("frame: unsupported frame type")
	ErrBadHeader       = errors.New("frame: header outside the TinyOS CC2420 layout")
)

// dataFCF is the frame control field of every TinyOS data frame: data
// type, ACK request, intra-PAN, 16-bit destination and source addressing.
const dataFCF = uint16(TypeData) | 1<<5 /*ack request*/ | 1<<6 /*intra-PAN*/ |
	2<<10 /*dest addr mode*/ | 2<<14 /*src addr mode*/

// DataFrame is a decoded data frame.
type DataFrame struct {
	Seq     uint8
	DestPAN uint16
	Dest    uint16
	Src     uint16
	AMType  uint8
	Payload []byte
}

// OnAirBytes returns the total on-air size of a data frame carrying
// payloadBytes of application data.
func OnAirBytes(payloadBytes int) int {
	return payloadBytes + OverheadBytes
}

// EncodeData serialises a data frame MPDU (MAC header + payload + FCS). The
// PHY preamble/SFD/PHR are not part of the returned buffer — the radio
// prepends them — but OnAirBytes accounts for them.
func EncodeData(f DataFrame) ([]byte, error) {
	if len(f.Payload) > MaxPayloadBytes {
		return nil, ErrPayloadTooLarge
	}
	buf := make([]byte, MACHeaderBytes+len(f.Payload)+FCSBytes)
	binary.LittleEndian.PutUint16(buf[0:2], dataFCF)
	buf[2] = f.Seq
	binary.LittleEndian.PutUint16(buf[3:5], f.DestPAN)
	binary.LittleEndian.PutUint16(buf[5:7], f.Dest)
	binary.LittleEndian.PutUint16(buf[7:9], f.Src)
	buf[9] = f.AMType
	buf[10] = 0 // reserved / TinyOS network byte
	copy(buf[MACHeaderBytes:], f.Payload)
	fcs := CRC16(buf[:len(buf)-FCSBytes])
	binary.LittleEndian.PutUint16(buf[len(buf)-FCSBytes:], fcs)
	return buf, nil
}

// DecodeData parses and validates a data frame MPDU produced by EncodeData:
// it accepts exactly the frames EncodeData writes, so an accepted frame
// re-encodes to the same bytes (FuzzDecodeData pins this).
func DecodeData(buf []byte) (DataFrame, error) {
	if len(buf) < MACHeaderBytes+FCSBytes {
		return DataFrame{}, ErrTooShort
	}
	want := binary.LittleEndian.Uint16(buf[len(buf)-FCSBytes:])
	if got := CRC16(buf[:len(buf)-FCSBytes]); got != want {
		return DataFrame{}, ErrBadFCS
	}
	fcf := binary.LittleEndian.Uint16(buf[0:2])
	if uint8(fcf&0x7) != TypeData {
		return DataFrame{}, fmt.Errorf("%w: type %d", ErrBadType, fcf&0x7)
	}
	if fcf != dataFCF || buf[10] != 0 {
		return DataFrame{}, fmt.Errorf("%w: frame control %#04x, reserved byte %#02x",
			ErrBadHeader, fcf, buf[10])
	}
	if len(buf) > MaxMPDUBytes {
		return DataFrame{}, ErrPayloadTooLarge
	}
	f := DataFrame{
		Seq:     buf[2],
		DestPAN: binary.LittleEndian.Uint16(buf[3:5]),
		Dest:    binary.LittleEndian.Uint16(buf[5:7]),
		Src:     binary.LittleEndian.Uint16(buf[7:9]),
		AMType:  buf[9],
	}
	f.Payload = make([]byte, len(buf)-MACHeaderBytes-FCSBytes)
	copy(f.Payload, buf[MACHeaderBytes:len(buf)-FCSBytes])
	return f, nil
}

// AckFrame is a decoded immediate acknowledgement.
type AckFrame struct {
	Seq uint8
}

// EncodeAck serialises an immediate ACK MPDU.
func EncodeAck(a AckFrame) []byte {
	buf := make([]byte, AckMPDUBytes)
	binary.LittleEndian.PutUint16(buf[0:2], uint16(TypeAck))
	buf[2] = a.Seq
	binary.LittleEndian.PutUint16(buf[3:5], CRC16(buf[:3]))
	return buf
}

// DecodeAck parses and validates an ACK MPDU.
func DecodeAck(buf []byte) (AckFrame, error) {
	if len(buf) != AckMPDUBytes {
		return AckFrame{}, ErrTooShort
	}
	want := binary.LittleEndian.Uint16(buf[3:5])
	if got := CRC16(buf[:3]); got != want {
		return AckFrame{}, ErrBadFCS
	}
	fcf := binary.LittleEndian.Uint16(buf[0:2])
	if uint8(fcf&0x7) != TypeAck {
		return AckFrame{}, fmt.Errorf("%w: type %d", ErrBadType, fcf&0x7)
	}
	if fcf != uint16(TypeAck) {
		return AckFrame{}, fmt.Errorf("%w: frame control %#04x", ErrBadHeader, fcf)
	}
	return AckFrame{Seq: buf[2]}, nil
}

// CRC16 computes the ITU-T CRC-16 used by the 802.15.4 FCS
// (polynomial x^16 + x^12 + x^5 + 1, LSB-first, zero initial value).
func CRC16(data []byte) uint16 {
	var crc uint16
	for _, b := range data {
		crc ^= uint16(b)
		for i := 0; i < 8; i++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ 0x8408
			} else {
				crc >>= 1
			}
		}
	}
	return crc
}
