package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"

	"wsnlink/internal/scenario"
	"wsnlink/internal/serve"
	"wsnlink/internal/sweep"
)

// digester hashes a campaign's rows as (index, field values) records:
// every field of the decoded row, by its bits, in declaration order. The
// canonical field encoding is a one-to-one rendering of those values, so
// two streams agree on the digest exactly when every row agrees field for
// field and arrives at its index — without re-rendering each row as text
// on the client's critical path.
type digester struct {
	h   hash.Hash64
	buf []byte
}

func newDigester() *digester { return &digester{h: fnv.New64a()} }

func (d *digester) add(index int, row any) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf[:0], uint64(index))
	d.buf = appendValue(d.buf, reflect.ValueOf(row))
	d.h.Write(d.buf)
}

// appendValue appends the bits of every number, bool and string in v.
func appendValue(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			b = appendValue(b, v.Field(i))
		}
	case reflect.Float32, reflect.Float64:
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		b = binary.LittleEndian.AppendUint64(b, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		b = binary.LittleEndian.AppendUint64(b, v.Uint())
	case reflect.Bool:
		if v.Bool() {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	case reflect.String:
		b = binary.LittleEndian.AppendUint64(b, uint64(v.Len()))
		b = append(b, v.String()...)
	default:
		panic(fmt.Sprintf("campaignbench: cannot digest a %s field", v.Type()))
	}
	return b
}

// addStreamed hashes one row as received from the service.
func (d *digester) addStreamed(r serve.StreamedRow) {
	if r.Scenario != "" {
		d.add(r.Index, r.ScenarioRow())
		return
	}
	d.add(r.Index, r.Row)
}

func (d *digester) sum() uint64 { return d.h.Sum64() }

// oracle holds the reference digest of every campaign the run checked,
// keyed by fingerprint.
type oracle struct {
	refs map[string]uint64
}

func newOracle() *oracle { return &oracle{refs: make(map[string]uint64)} }

// reference returns the campaign's digest as the engine computes it
// directly (sweep.RunConfigs or sweep.RunScenarios over the same spec),
// with no service in between. Results are memoized by fingerprint.
func (o *oracle) reference(ctx context.Context, spec serve.CampaignSpec) (uint64, error) {
	fpv, err := spec.Fingerprint()
	if err != nil {
		return 0, err
	}
	fp := fmt.Sprintf("%016x", fpv)
	if d, ok := o.refs[fp]; ok {
		return d, nil
	}
	d, err := referenceDigest(ctx, spec)
	if err != nil {
		return 0, err
	}
	o.refs[fp] = d
	return d, nil
}

// referenceDigest runs the spec through the engine and digests the rows.
func referenceDigest(ctx context.Context, spec serve.CampaignSpec) (uint64, error) {
	norm, err := spec.Normalized(serve.Limits{})
	if err != nil {
		return 0, err
	}
	cfgs := norm.Space.Space().All()
	opts := sweep.RunOptions{
		Packets:  norm.Packets,
		BaseSeed: norm.BaseSeed,
		CRN:      norm.CRN,
		Workers:  runtime.GOMAXPROCS(0),
	}
	d := newDigester()
	scn, err := norm.ScenarioSpec()
	if err != nil {
		return 0, err
	}
	if scn.Kind != scenario.KindLink {
		rows, err := sweep.RunScenarios(ctx, scn, cfgs, opts)
		if err != nil {
			return 0, err
		}
		for i, r := range rows {
			// The row as a client decodes it from its canonical fields.
			back, err := sweep.ScenarioRowFromFields(sweep.ScenarioRowFields(r))
			if err != nil {
				return 0, err
			}
			d.add(i, back)
		}
		return d.sum(), nil
	}
	rows, err := sweep.RunConfigs(ctx, cfgs, opts)
	if err != nil {
		return 0, err
	}
	for i, r := range rows {
		back, err := sweep.RowFromFields(r.Fields())
		if err != nil {
			return 0, err
		}
		d.add(i, back)
	}
	return d.sum(), nil
}
