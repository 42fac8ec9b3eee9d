package sweep

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"strconv"

	"wsnlink/internal/sim"
	"wsnlink/internal/stack"
)

// The checkpoint sidecar is a plain-text, append-only log:
//
//	wsnlink-checkpoint v1
//	fingerprint <16 hex digits> configs <N>
//	0
//	1
//	2
//	...
//
// One index is appended per processed configuration (after its row has been
// yielded, or after its failure was recorded under ContinueOnError), so the
// file always describes a durably-handled prefix of the campaign. Because
// the engine emits in input order the indices are consecutive from 0; a
// torn trailing line from a crash is detected and discarded on load. The
// fingerprint ties the file to the campaign identity (configurations,
// Packets, BaseSeed, Engine, CRN) so a checkpoint cannot silently resume a
// different sweep. Execution knobs — Workers, BatchSize — are not identity:
// they never change row content, so a campaign may resume with different
// parallelism or blocking.

const checkpointMagic = "wsnlink-checkpoint v1"

// Checkpoint describes a campaign's resumable progress.
type Checkpoint struct {
	// Fingerprint identifies the campaign (see campaignFingerprint).
	Fingerprint uint64
	// Configs is the total number of configurations in the campaign.
	Configs int
	// Done is the length of the processed prefix: configurations
	// [0, Done) have been handled and will be skipped on resume.
	Done int
}

// LoadCheckpoint reads a checkpoint sidecar file written by a checkpointed
// sweep. A trailing torn line (from a crash mid-append) is ignored.
func LoadCheckpoint(path string) (Checkpoint, error) {
	ck, _, err := loadCheckpoint(path)
	return ck, err
}

// loadCheckpoint also returns the byte offset of the end of the last valid
// line, so resume can truncate torn trailing data before appending.
func loadCheckpoint(path string) (Checkpoint, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Checkpoint{}, 0, fmt.Errorf("sweep: checkpoint: %w", err)
	}
	ck, offset, err := parseCheckpoint(data)
	if err != nil {
		return Checkpoint{}, 0, fmt.Errorf("sweep: checkpoint %s: %w", path, err)
	}
	return ck, int64(offset), nil
}

// appendCheckpointHeader appends the two header lines a fresh checkpoint
// starts with.
func appendCheckpointHeader(b []byte, fingerprint uint64, configs int) []byte {
	return fmt.Appendf(b, "%s\nfingerprint %016x configs %d\n", checkpointMagic, fingerprint, configs)
}

// parseCheckpoint reads a checkpoint sidecar's bytes and returns the length
// of its valid prefix. It accepts only the bytes the writer emits: the
// header of appendCheckpointHeader, then the indices 0, 1, 2, ... in
// canonical decimal, one per newline-terminated line. The first line that
// is torn or is not the next index ends the prefix, even when its leading
// bytes would parse; a missing, torn or non-canonical header is an error.
func parseCheckpoint(data []byte) (Checkpoint, int, error) {
	magic, rest, ok := bytes.Cut(data, []byte("\n"))
	if ok && string(magic) != checkpointMagic {
		return Checkpoint{}, 0, errors.New("not a checkpoint file")
	}
	line, _, ok := bytes.Cut(rest, []byte("\n"))
	if !ok {
		return Checkpoint{}, 0, errors.New("truncated header")
	}
	var ck Checkpoint
	offset := len(magic) + len(line) + 2
	// Scan loosely, then require the values to re-render to the very bytes
	// read: that rejects short or upper-case hex, signs, leading zeros and
	// trailing junk.
	_, err := fmt.Sscanf(string(line), "fingerprint %x configs %d", &ck.Fingerprint, &ck.Configs)
	if err != nil || ck.Configs < 0 ||
		!bytes.Equal(appendCheckpointHeader(nil, ck.Fingerprint, ck.Configs), data[:offset]) {
		return Checkpoint{}, 0, fmt.Errorf("bad header %.64q", line)
	}
	var next []byte
	for {
		next = append(strconv.AppendInt(next[:0], int64(ck.Done), 10), '\n')
		if !bytes.HasPrefix(data[offset:], next) {
			return ck, offset, nil
		}
		offset += len(next)
		ck.Done++
	}
}

// CampaignFingerprint returns the campaign identity hash the checkpoint
// sidecar records — the same value a run manifest stamps — so external
// tooling can tie datasets, checkpoints and manifests to one campaign.
func CampaignFingerprint(cfgs []stack.Config, opts RunOptions) uint64 {
	return campaignFingerprint(cfgs, opts)
}

// campaignFingerprint hashes the campaign identity: every configuration and
// the option knobs that change row content. (Channel and ErrorModel
// overrides are not part of the hash; keep them stable across resumes.)
func campaignFingerprint(cfgs []stack.Config, opts RunOptions) uint64 {
	h := newFingerprintHash()
	h.campaign(cfgs, opts)
	return h.Sum64()
}

// fingerprintHash is the FNV-64a hash both fingerprint namespaces use,
// fed one little-endian 64-bit word at a time.
type fingerprintHash struct {
	hash.Hash64
	buf [8]byte
}

func newFingerprintHash() *fingerprintHash {
	return &fingerprintHash{Hash64: fnv.New64a()}
}

func (h *fingerprintHash) word(v uint64) {
	binary.LittleEndian.PutUint64(h.buf[:], v)
	h.Write(h.buf[:])
}

// campaign writes the words of the campaign identity both namespaces
// share: the configurations, then the option knobs that change row
// content.
func (h *fingerprintHash) campaign(cfgs []stack.Config, opts RunOptions) {
	wf := func(v float64) { h.word(math.Float64bits(v)) }
	h.word(uint64(len(cfgs)))
	for _, c := range cfgs {
		wf(c.DistanceM)
		h.word(uint64(c.TxPower))
		h.word(uint64(c.MaxTries))
		wf(c.RetryDelay)
		h.word(uint64(c.QueueCap))
		wf(c.PktInterval)
		h.word(uint64(c.PayloadBytes))
	}
	h.word(uint64(opts.Packets))
	h.word(opts.BaseSeed)
	// The engine hashes to the byte the old Fast flag wrote (fast=1, DES=0)
	// so fingerprints of existing checkpoints remain valid; the CRN word is
	// appended only when pairing is on, for the same reason. BatchSize and
	// Workers are deliberately absent — they never change row content.
	if opts.Engine == sim.EngineDES {
		h.word(0)
	} else {
		h.word(1)
	}
	if opts.CRN {
		h.word(0x43524e) // "CRN"
	}
	// A shard offset changes row content (seeds derive from the global
	// index), so it is identity — but the word is appended only when the
	// offset is nonzero so every pre-shard fingerprint stays valid, and a
	// shard that happens to cover the whole space at offset 0 shares the
	// unsharded campaign's cache entry.
	if opts.IndexOffset > 0 {
		h.word(0x5348415244) // "SHARD"
		h.word(uint64(opts.IndexOffset))
	}
}

// checkpointFile appends processed indices as the stream emits them.
type checkpointFile struct {
	f    *os.File
	done int
	buf  []byte
}

// openCheckpoint creates a fresh checkpoint (resume=false, truncating any
// previous file) or validates and reopens an existing one for appending.
func openCheckpoint(path string, fingerprint uint64, configs int, resume bool) (*checkpointFile, error) {
	if !resume {
		f, err := os.Create(path)
		if err != nil {
			return nil, fmt.Errorf("sweep: checkpoint: %w", err)
		}
		if _, err := f.Write(appendCheckpointHeader(nil, fingerprint, configs)); err != nil {
			f.Close()
			return nil, fmt.Errorf("sweep: checkpoint: %w", err)
		}
		return &checkpointFile{f: f}, nil
	}

	ck, offset, err := loadCheckpoint(path)
	if err != nil {
		return nil, err
	}
	if ck.Fingerprint != fingerprint || ck.Configs != configs {
		return nil, fmt.Errorf("sweep: checkpoint %s does not match this campaign "+
			"(want fingerprint %016x over %d configs, file has %016x over %d)",
			path, fingerprint, configs, ck.Fingerprint, ck.Configs)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: checkpoint: %w", err)
	}
	// Drop any torn trailing line before appending.
	if err := f.Truncate(offset); err != nil {
		f.Close()
		return nil, fmt.Errorf("sweep: checkpoint: %w", err)
	}
	if _, err := f.Seek(offset, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("sweep: checkpoint: %w", err)
	}
	return &checkpointFile{f: f, done: ck.Done}, nil
}

// Done returns the length of the processed prefix recorded so far.
func (c *checkpointFile) Done() int { return c.done }

// Append records index idx, which must be the current prefix length, as
// processed.
func (c *checkpointFile) Append(idx int) error {
	if idx != c.done {
		return fmt.Errorf("sweep: checkpoint append: index %d, want %d", idx, c.done)
	}
	return c.AppendThrough(idx + 1)
}

// AppendThrough records every index from the current prefix length up to
// n-1 as processed, in one write: the group commit of a run of rows.
func (c *checkpointFile) AppendThrough(n int) error {
	c.buf = c.buf[:0]
	for i := c.done; i < n; i++ {
		c.buf = append(strconv.AppendInt(c.buf, int64(i), 10), '\n')
	}
	if _, err := c.f.Write(c.buf); err != nil {
		return fmt.Errorf("sweep: checkpoint append: %w", err)
	}
	c.done = n
	return nil
}

func (c *checkpointFile) Close() error { return c.f.Close() }

// CheckpointWriter is the exported handle over the checkpoint sidecar for
// executors that produce rows outside this package's engines — the
// distributed coordinator merges runner streams and must checkpoint each
// merged row with exactly the semantics the local engine uses, so a
// campaign can move between local and distributed execution mid-flight.
type CheckpointWriter struct {
	f *checkpointFile
}

// OpenCheckpointWriter creates (resume=false) or validates and reopens
// (resume=true) the checkpoint sidecar at path for the campaign identified
// by fingerprint over configs configurations.
func OpenCheckpointWriter(path string, fingerprint uint64, configs int, resume bool) (*CheckpointWriter, error) {
	f, err := openCheckpoint(path, fingerprint, configs, resume)
	if err != nil {
		return nil, err
	}
	return &CheckpointWriter{f: f}, nil
}

// Done returns the length of the processed prefix recorded so far.
func (w *CheckpointWriter) Done() int { return w.f.Done() }

// Append records index idx as durably processed; indices must be appended
// consecutively from Done().
func (w *CheckpointWriter) Append(idx int) error { return w.f.Append(idx) }

// AppendThrough records indices [Done(), n) as durably processed in one
// write.
func (w *CheckpointWriter) AppendThrough(n int) error { return w.f.AppendThrough(n) }

func (w *CheckpointWriter) Close() error { return w.f.Close() }
