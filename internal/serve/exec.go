package serve

import (
	"context"
	"fmt"

	"wsnlink/internal/scenario"
	"wsnlink/internal/stack"
	"wsnlink/internal/sweep"
)

// Executor produces a campaign's rows from somewhere other than this
// process's sweep engines — the distributed coordinator streams them from
// runner daemons. The server keeps everything else: the durable queue, the
// spool dataset, the checkpoint sidecar, progress accounting, row
// streaming and cache promotion all behave exactly as for a local run, so
// a campaign is free to move between local and distributed execution
// across restarts (the fingerprints and sidecars are shared).
type Executor interface {
	// ExecuteCampaign emits every row in [job.Resume, len(job.Configs))
	// through job.EmitLine, in order, honoring ctx. Returning nil before
	// all rows are emitted is an execution error the server surfaces.
	ExecuteCampaign(ctx context.Context, job *ExecJob) error
}

// ExecJob is one campaign handed to an Executor.
type ExecJob struct {
	// ID is the server's job identifier (log correlation).
	ID string
	// Spec is the normalized campaign spec, shard window included.
	Spec CampaignSpec
	// Scenario is the normalized scenario selection.
	Scenario scenario.Spec
	// Configs are the campaign's configurations (the shard window of the
	// materialized space, for sharded specs). Row i corresponds to
	// Configs[i]; its global index is Spec.ShardOffset+i.
	Configs []stack.Config
	// Fingerprint is the campaign identity hash the spec normalizes to.
	Fingerprint uint64
	// Resume is the durably-processed prefix length: the executor must
	// emit rows starting at index Resume.
	Resume int

	emit   func(index int, line []byte) error
	commit func() error
}

// EmitLine delivers the next row as its NDJSON line, without the newline:
// a line in the canonical layout of the job's schema, as a daemon's rows
// endpoint streams it (see scanCanonicalRow). Rows must arrive in index
// order starting at Resume. The line's layout is checked, its index
// rewritten to index, and the rest of its bytes spliced into the spool's
// buffer as they are — values are not decoded or re-rendered, so the
// executor vouches for them as a daemon's own cache does on a replay. The
// row reaches the spool, the checkpoint sidecar and the row streamers at
// the next Commit, or as soon as maxUncommitted bytes of rows are
// buffered. The line is not retained.
func (j *ExecJob) EmitLine(index int, line []byte) error { return j.emit(index, line) }

// Commit makes the rows emitted since the last commit durable and visible:
// one spool write, then one checkpoint append — the group commit the local
// engine does per emitted run, so a coordinator crash resumes from the last
// committed row — then one wake-up of the row streamers. The server
// commits whatever is left when ExecuteCampaign returns; an executor calls
// Commit whenever it is about to wait for more rows, so streamers follow
// the campaign as it arrives.
func (j *ExecJob) Commit() error { return j.commit() }

// maxUncommitted bounds the rendered rows an executor's run may buffer
// before the server commits them itself: about 90 link rows per write, so
// an executor that seldom waits neither holds a campaign in memory nor
// keeps the job's streamers behind until it ends.
const maxUncommitted = 64 << 10

// executeRemote is executeJob's path through Options.Executor: the server
// prepares the spool and checkpoint exactly as for a local run, then hands
// a row sink to the executor instead of the sweep engine.
func (s *Server) executeRemote(ctx context.Context, e *jobEntry, spec CampaignSpec,
	scn scenario.Spec, cfgs []stack.Config, fingerprint uint64, fp string) error {
	scenarioRows := scn.Kind != scenario.KindLink
	spool, resume, _, err := prepareSpool(s.store, fp, fingerprint, len(cfgs), scenarioRows)
	if err != nil {
		return err
	}
	ck, err := sweep.OpenCheckpointWriter(s.store.SpoolCheckpoint(fp), fingerprint, len(cfgs), resume)
	if err != nil {
		spool.f.Close()
		return err
	}
	closeFiles := func() error {
		cerr := spool.f.Close()
		if kerr := ck.Close(); cerr == nil {
			cerr = kerr
		}
		return cerr
	}
	if ck.Done() != spool.next {
		closeFiles()
		return fmt.Errorf("serve: internal: checkpoint records %d rows, spool has %d", ck.Done(), spool.next)
	}

	done := spool.next
	e.prog.Begin(len(cfgs), done)
	s.mu.Lock()
	e.job.ResumedFrom = done
	e.ready = true
	s.mu.Unlock()
	e.notify.Broadcast()

	commit := func() error {
		if ck.Done() == spool.next {
			return nil
		}
		// Spool before checkpoint, like the engine: the dataset is always
		// at least as long as the sidecar claims.
		if err := spool.commit(); err != nil {
			return err
		}
		if err := ck.AppendThrough(spool.next); err != nil {
			return err
		}
		e.notify.Broadcast()
		return nil
	}
	layout := &linkLayout
	if scenarioRows {
		layout = &scenarioLayout
	}
	job := &ExecJob{
		ID:          e.job.ID,
		Spec:        spec,
		Scenario:    scn,
		Configs:     cfgs,
		Fingerprint: fingerprint,
		Resume:      done,
		emit: func(index int, line []byte) error {
			if index != spool.next {
				return fmt.Errorf("serve: executor emitted row %d, want %d", index, spool.next)
			}
			if !spool.splice(line, layout) {
				return fmt.Errorf("serve: executor row %d is not a canonical %s row line: %.80q",
					index, scn.Kind, line)
			}
			e.prog.MarkDone()
			if len(spool.rows.buf) >= maxUncommitted {
				return commit()
			}
			return nil
		},
		commit: commit,
	}

	execErr := s.opts.Executor.ExecuteCampaign(ctx, job)
	commitErr := commit() // what was emitted stays, whatever the outcome
	closeErr := closeFiles()
	switch {
	case execErr != nil:
		return execErr
	case commitErr != nil:
		return commitErr
	case closeErr != nil:
		return closeErr
	}
	if spool.next != len(cfgs) {
		return fmt.Errorf("serve: executor finished after %d of %d rows", spool.next, len(cfgs))
	}
	if err := s.store.Promote(fp); err != nil {
		return err
	}
	s.publishPromoted(fp)
	s.tel.cachePromoted()
	return nil
}
