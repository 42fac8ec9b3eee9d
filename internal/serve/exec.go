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
	// through job.Emit, in order, honoring ctx. Returning nil before all
	// rows are emitted is an execution error the server surfaces.
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

	emit func(StreamedRow) error
}

// Emit delivers the next row. Rows must arrive in index order starting at
// Resume; each call encodes the row into the spool, flushes it, appends
// the checkpoint sidecar, and wakes row streamers — the same durability
// sequence the local engine follows, so a coordinator crash resumes from
// the last emitted row.
func (j *ExecJob) Emit(r StreamedRow) error { return j.emit(r) }

// executeRemote is executeJob's path through Options.Executor: the server
// prepares the spool and checkpoint exactly as for a local run, then hands
// a row sink to the executor instead of the sweep engine.
func (s *Server) executeRemote(ctx context.Context, e *jobEntry, spec CampaignSpec,
	scn scenario.Spec, cfgs []stack.Config, fingerprint uint64, fp string) error {
	link := scn.Kind == scenario.KindLink

	var (
		f      file
		resume bool
		done   int
		encode func(StreamedRow) error
		err    error
	)
	if link {
		var enc *sweep.Encoder
		var prefix []sweep.Row
		f, enc, resume, prefix, err = prepareSpool(s.store, fp, fingerprint, len(cfgs))
		if err != nil {
			return err
		}
		done = len(prefix)
		encode = func(r StreamedRow) error {
			if err := enc.Encode(r.Row); err != nil {
				return err
			}
			return enc.Flush()
		}
	} else {
		var enc *sweep.ScenarioEncoder
		f, enc, resume, done, err = prepareScenarioSpool(s.store, fp, fingerprint, len(cfgs))
		if err != nil {
			return err
		}
		encode = func(r StreamedRow) error {
			if err := enc.Encode(r.ScenarioRow()); err != nil {
				return err
			}
			return enc.Flush()
		}
	}

	ck, err := sweep.OpenCheckpointWriter(s.store.SpoolCheckpoint(fp), fingerprint, len(cfgs), resume)
	if err != nil {
		f.Close()
		return err
	}
	closeFiles := func() error {
		cerr := f.Close()
		if kerr := ck.Close(); cerr == nil {
			cerr = kerr
		}
		return cerr
	}
	if ck.Done() != done {
		closeFiles()
		return fmt.Errorf("serve: internal: checkpoint records %d rows, spool has %d", ck.Done(), done)
	}

	e.prog.Begin(len(cfgs), done)
	s.mu.Lock()
	e.job.ResumedFrom = done
	e.ready = true
	s.mu.Unlock()
	e.notify.Broadcast()

	next := done
	job := &ExecJob{
		ID:          e.job.ID,
		Spec:        spec,
		Scenario:    scn,
		Configs:     cfgs,
		Fingerprint: fingerprint,
		Resume:      done,
		emit: func(r StreamedRow) error {
			if r.Index != next {
				return fmt.Errorf("serve: executor emitted row %d, want %d", r.Index, next)
			}
			if err := encode(r); err != nil {
				return err
			}
			// Spool before checkpoint, like the engine: the CSV is always
			// at least as long as the sidecar claims.
			if err := ck.Append(next); err != nil {
				return err
			}
			next++
			e.prog.MarkDone()
			e.notify.Broadcast()
			return nil
		},
	}

	execErr := s.opts.Executor.ExecuteCampaign(ctx, job)
	closeErr := closeFiles()
	if execErr != nil {
		return execErr
	}
	if closeErr != nil {
		return closeErr
	}
	if next != len(cfgs) {
		return fmt.Errorf("serve: executor finished after %d of %d rows", next, len(cfgs))
	}
	if err := s.store.Promote(fp); err != nil {
		return err
	}
	s.publishPromoted(fp)
	s.tel.cachePromoted()
	return nil
}
