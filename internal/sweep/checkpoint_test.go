package sweep

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"wsnlink/internal/sim"
)

func writeCheckpointFile(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.ckpt")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func header(fp uint64, configs int) string {
	return fmt.Sprintf("%s\nfingerprint %016x configs %d\n", checkpointMagic, fp, configs)
}

func TestLoadCheckpointPrefix(t *testing.T) {
	path := writeCheckpointFile(t, header(0xabcd, 10)+"0\n1\n2\n")
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Fingerprint != 0xabcd || ck.Configs != 10 || ck.Done != 3 {
		t.Fatalf("checkpoint = %+v", ck)
	}
}

func TestLoadCheckpointIgnoresTornTail(t *testing.T) {
	// A crash mid-append leaves a final line without a newline; it must not
	// count even when its prefix parses as the expected index.
	path := writeCheckpointFile(t, header(1, 10)+"0\n1\n2")
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Done != 2 {
		t.Fatalf("Done = %d, want 2 (torn '2' ignored)", ck.Done)
	}
}

func TestLoadCheckpointStopsAtCorruptEntry(t *testing.T) {
	path := writeCheckpointFile(t, header(1, 10)+"0\n1\nxyz\n5\n")
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Done != 2 {
		t.Fatalf("Done = %d, want 2 (stop at corrupt entry)", ck.Done)
	}
}

func TestLoadCheckpointRejectsGarbage(t *testing.T) {
	for _, body := range []string{"", "not a checkpoint\n0\n", checkpointMagic + "\n"} {
		path := writeCheckpointFile(t, body)
		if _, err := LoadCheckpoint(path); err == nil {
			t.Errorf("body %q: want error", body)
		}
	}
}

func TestOpenCheckpointResumeTruncatesTornTail(t *testing.T) {
	path := writeCheckpointFile(t, header(7, 10)+"0\n1\n2") // torn "2"
	ck, err := openCheckpoint(path, 7, 10, true)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Done() != 2 {
		t.Fatalf("Done = %d, want 2", ck.Done())
	}
	if err := ck.Append(2); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	reloaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.Done != 3 {
		t.Fatalf("after resume append, Done = %d, want 3", reloaded.Done)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(data), "1\n2\n") {
		t.Fatalf("file tail corrupted: %q", string(data))
	}
}

func TestOpenCheckpointMismatch(t *testing.T) {
	path := writeCheckpointFile(t, header(7, 10))
	if _, err := openCheckpoint(path, 8, 10, true); err == nil {
		t.Error("fingerprint mismatch should error")
	}
	if _, err := openCheckpoint(path, 7, 11, true); err == nil {
		t.Error("config-count mismatch should error")
	}
}

func TestCampaignFingerprintSensitivity(t *testing.T) {
	cfgs := smallSpace().All()
	base := RunOptions{Packets: 100, BaseSeed: 1}
	fp := campaignFingerprint(cfgs, base)

	seed := base
	seed.BaseSeed = 2
	if campaignFingerprint(cfgs, seed) == fp {
		t.Error("fingerprint ignores BaseSeed")
	}
	pkts := base
	pkts.Packets = 200
	if campaignFingerprint(cfgs, pkts) == fp {
		t.Error("fingerprint ignores Packets")
	}
	des := base
	des.Engine = sim.EngineDES
	if campaignFingerprint(cfgs, des) == fp {
		t.Error("fingerprint ignores Engine")
	}
	crn := base
	crn.CRN = true
	if campaignFingerprint(cfgs, crn) == fp {
		t.Error("fingerprint ignores CRN")
	}
	if campaignFingerprint(cfgs[:len(cfgs)-1], base) == fp {
		t.Error("fingerprint ignores the configuration list")
	}
	// Worker count must NOT change identity.
	cosmetic := base
	cosmetic.Workers = 13
	if campaignFingerprint(cfgs, cosmetic) != fp {
		t.Error("fingerprint depends on non-identity knobs")
	}
}

// FuzzCheckpointPrefix feeds the checkpoint parser arbitrary bytes. Whatever
// it accepts must be what the writer would emit for the parsed checkpoint —
// the header, then the indices 0 through Done-1 — byte for byte up to the
// returned offset, so resume never truncates to, or appends after, a line
// the writer did not write.
func FuzzCheckpointPrefix(f *testing.F) {
	good := header(0xabcd, 10) + "0\n1\n2\n"
	for _, seed := range []string{
		good,
		good + "3",                 // torn tail
		good + "03\n",              // leading zero
		good + "+3\n",              // sign
		good + "3 \n",              // trailing junk
		header(0xabcd, 10) + "1\n", // out of sequence
		checkpointMagic + "\nfingerprint abcd configs 10\n0\n",                 // short hex
		checkpointMagic + "\nfingerprint 000000000000ABCD configs 10\n0\n",     // upper-case hex
		checkpointMagic + "\nfingerprint 000000000000abcd configs -3\n0\n",     // negative count
		checkpointMagic + "\nfingerprint 000000000000abcd configs +5\n0\n",     // signed count
		checkpointMagic + "\nfingerprint 000000000000abcd configs 5 junk\n0\n", // trailing junk
		checkpointMagic + "\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, offset, err := parseCheckpoint(data)
		if err != nil {
			return
		}
		if offset > len(data) {
			t.Fatalf("offset %d past the %d input bytes", offset, len(data))
		}
		want := appendCheckpointHeader(nil, ck.Fingerprint, ck.Configs)
		for i := 0; i < ck.Done; i++ {
			want = append(strconv.AppendInt(want, int64(i), 10), '\n')
		}
		if !bytes.Equal(want, data[:offset]) {
			t.Fatalf("accepted prefix %q re-renders as %q", data[:offset], want)
		}
	})
}
