// Package frame holds the IEEE 802.15.4 frame layout used by the TinyOS
// CC2420 stack in the paper, as the overhead accounting the paper's models
// depend on:
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

// OnAirBytes returns the total on-air size of a data frame carrying
// payloadBytes of application data.
func OnAirBytes(payloadBytes int) int {
	return payloadBytes + OverheadBytes
}
