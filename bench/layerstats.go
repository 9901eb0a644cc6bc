package main

import (
	"horus/bench/probe"
	"horus/internal/core"
	"horus/internal/layers/com"
	"horus/internal/layers/frag"
	"horus/internal/layers/mbrship"
	"horus/internal/layers/nak"
	"horus/internal/layers/total"
)

// layerStats sums the public Stats() of every layer instance of a run.
// This file is the one place the benchmark reads the program's own
// counters; everything else is measured from outside.
type layerStats struct {
	nak     nak.Stats
	frag    frag.Stats
	total   total.Stats
	mbrship mbrship.Stats
	com     com.Stats
}

// add folds in the counters of one group's stack. Call it on the
// endpoint's executor (or after the fabric has stopped).
func (s *layerStats) add(g *core.Group) {
	if l, ok := probe.Unwrap(g.Focus("NAK")).(*nak.Nak); ok {
		x := l.Stats()
		s.nak.DataSent += x.DataSent
		s.nak.Retransmits += x.Retransmits
		s.nak.NaksSent += x.NaksSent
		s.nak.Placeholders += x.Placeholders
		s.nak.StatusSent += x.StatusSent
		s.nak.Duplicates += x.Duplicates
		s.nak.OutOfOrder += x.OutOfOrder
		s.nak.LostReported += x.LostReported
		s.nak.ProblemsRaised += x.ProblemsRaised
	}
	if l, ok := probe.Unwrap(g.Focus("FRAG")).(*frag.Frag); ok {
		x := l.Stats()
		s.frag.Fragmented += x.Fragmented
		s.frag.Fragments += x.Fragments
		s.frag.Reassembled += x.Reassembled
	}
	if l, ok := probe.Unwrap(g.Focus("TOTAL")).(*total.Total); ok {
		x := l.Stats()
		s.total.Stamped += x.Stamped
		s.total.Delivered += x.Delivered
		s.total.TokenOps += x.TokenOps
		s.total.Requests += x.Requests
		s.total.Resubmits += x.Resubmits
	}
	if l, ok := probe.Unwrap(g.Focus("MBRSHIP")).(*mbrship.Mbrship); ok {
		x := l.Stats()
		s.mbrship.ViewsInstalled += x.ViewsInstalled
		s.mbrship.FlushRounds += x.FlushRounds
		s.mbrship.FwdsSent += x.FwdsSent
		s.mbrship.FwdsDelivered += x.FwdsDelivered
		s.mbrship.StaleDropped += x.StaleDropped
		s.mbrship.ViewsRefused += x.ViewsRefused
		s.mbrship.MergesGranted += x.MergesGranted
		s.mbrship.MergesDenied += x.MergesDenied
	}
	if l, ok := probe.Unwrap(g.Focus("COM")).(*com.Com); ok {
		x := l.Stats()
		s.com.Sent += x.Sent
		s.com.Received += x.Received
		s.com.Filtered += x.Filtered
	}
}
