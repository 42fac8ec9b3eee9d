package frame

import "testing"

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
