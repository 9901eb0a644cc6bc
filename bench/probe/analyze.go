package probe

import (
	"encoding/json"
	"fmt"
	"io"

	"horus/internal/core"
)

// AppLayer is the Layer value of spans recorded around the
// application handler (Recorder.App), one above the top of the stack.
const AppLayer = -1

// App records the application handler as an Up span above the top
// layer, so that handler time is attributed instead of landing in the
// top layer's self time, and so that the top layer's deliveries are
// visible as child spans like any other layer's.
func (r *Recorder) App(ev *core.Event, handler func(*core.Event)) {
	i := r.begin(AppLayer, Up, ev)
	handler(ev)
	r.end(i)
}

// LayerReport aggregates the spans of one layer position over every
// recorder passed to Analyze.
type LayerReport struct {
	Name string

	DownSelfNs, UpSelfNs int64 // wall ns inside the layer itself
	DownEvents, UpEvents int64 // invocations

	// CastEntryBytes sums the message length of every cast downcall as
	// it entered this layer; the difference between adjacent layers is
	// the header bytes the upper one added.
	CastEntryBytes int64

	// Originated* count transmissions whose chain of Down spans starts
	// directly below this layer and is not an application cast:
	// control traffic and retransmissions this layer caused.
	OriginatedEvents, OriginatedPkts, OriginatedBytes int64

	// DownHoldNs has one sample per application cast seen entering this
	// layer and the next: fabric time between the two entries.
	DownHoldNs []int64
	// UpHoldNs has one sample per upward delivery burst of this layer:
	// fabric time since the first multicast from that source the layer
	// absorbed without delivering anything, 0 when there was none.
	UpHoldNs []int64
}

// Report is the analysis of one traced run.
type Report struct {
	Layers []LayerReport // stack layers, top first
	App    LayerReport   // the application handler's spans (Up only)

	Spans   int
	Dropped int
	SelfNs  int64 // Σ self time of every span, application included

	// AppCastWire sums the wire length of application cast
	// transmissions, counted once per transmission; with
	// Layers[last].CastEntryBytes it gives the bottom layer's header.
	AppCastWire int64
	// AppPkts/AppBytes are application cast transmissions counted once
	// per destination.
	AppPkts, AppBytes int64
}

// Analyze aggregates recorders of endpoints that run the same stack.
func Analyze(recs []*Recorder) *Report {
	rep := &Report{}
	for _, r := range recs {
		if len(rep.Layers) < len(r.Names) {
			rep.Layers = append(rep.Layers, make([]LayerReport, len(r.Names)-len(rep.Layers))...)
		}
		for i, n := range r.Names {
			rep.Layers[i].Name = n
		}
	}
	for _, r := range recs {
		rep.addRecorder(r)
	}
	return rep
}

func isData(t core.EventType) bool { return t == core.UCast || t == core.USend }

func (rep *Report) layer(i int8) *LayerReport {
	if i == AppLayer {
		return &rep.App
	}
	return &rep.Layers[i]
}

func (rep *Report) addRecorder(r *Recorder) {
	spans := r.Spans
	rep.Spans += len(spans)
	rep.Dropped += r.Dropped
	n := len(r.Names)

	// upKids[i] counts Up spans one layer above span i that i caused.
	upKids := make([]int32, len(spans))
	for i := range spans {
		s := &spans[i]
		if s.Dir == Up && s.Parent >= 0 {
			p := &spans[s.Parent]
			if p.Dir == Up && p.Layer == s.Layer+1 {
				upKids[s.Parent]++
			}
		}
	}

	firstDown := make([]map[uint64]int64, n) // per layer: tag → fabric time of first entry
	for i := range firstDown {
		firstDown[i] = make(map[uint64]int64)
	}
	type markKey struct {
		layer int8
		src   uint8
	}
	absorbed := make(map[markKey]int64) // fabric time of the first absorbed multicast
	sampled := make([]bool, len(spans)) // parent already produced its up-hold sample

	for i := range spans {
		s := &spans[i]
		rep.SelfNs += int64(s.Self)
		l := rep.layer(s.Layer)
		if s.Dir == Down {
			l.DownSelfNs += int64(s.Self)
			l.DownEvents++
			if s.Type == core.DCast && s.MsgLen >= 0 {
				l.CastEntryBytes += int64(s.MsgLen)
			}
			if s.Type == core.DCast && s.Tag != 0 {
				j := int(s.Layer)
				if _, seen := firstDown[j][s.Tag]; !seen {
					firstDown[j][s.Tag] = s.Fabric
					if j > 0 {
						if t0, ok := firstDown[j-1][s.Tag]; ok {
							up := &rep.Layers[j-1]
							up.DownHoldNs = append(up.DownHoldNs, s.Fabric-t0)
							delete(firstDown[j-1], s.Tag)
						}
					}
				}
			}
			if s.Pkts > 0 {
				rep.attribute(spans, s)
			}
			continue
		}
		l.UpSelfNs += int64(s.Self)
		l.UpEvents++
		if s.Layer >= 0 && s.Type == core.UCast && upKids[i] == 0 {
			k := markKey{s.Layer, s.Src}
			if _, ok := absorbed[k]; !ok {
				absorbed[k] = s.Fabric
			}
		}
		if s.Parent >= 0 && isData(s.Type) {
			p := &spans[s.Parent]
			if p.Dir == Up && p.Layer == s.Layer+1 && isData(p.Type) && !sampled[s.Parent] {
				sampled[s.Parent] = true
				k := markKey{p.Layer, p.Src}
				hold := int64(0)
				if t0, ok := absorbed[k]; ok {
					hold = s.Fabric - t0
					delete(absorbed, k)
				}
				pl := rep.layer(p.Layer)
				pl.UpHoldNs = append(pl.UpHoldNs, hold)
			}
		}
	}
}

// attribute charges the transmissions made inside span s to whoever
// started the downcall that carried them. A downcall keeps its event
// type on its way down, so the chain is followed upward while the
// parent is a Down span of the same type: a token request sent from
// inside TOTAL's handling of a cast is a send, and starts below TOTAL.
func (rep *Report) attribute(spans []Span, s *Span) {
	top := s
	for top.Parent >= 0 && spans[top.Parent].Dir == Down && spans[top.Parent].Type == s.Type {
		top = &spans[top.Parent]
	}
	if s.Type == core.DCast && (top.Layer == 0 || top.Tag != 0) {
		// An application cast, whether it came straight from the
		// application or was parked by a layer and released later.
		rep.AppCastWire += int64(s.Wire)
		rep.AppPkts += int64(s.Pkts)
		rep.AppBytes += s.Bytes
		return
	}
	if top.Layer == 0 {
		return // a downcall of the application other than a cast
	}
	o := &rep.Layers[top.Layer-1]
	o.OriginatedEvents++
	o.OriginatedPkts += int64(s.Pkts)
	o.OriginatedBytes += s.Bytes
}

// HeaderBytes returns, per layer, the header bytes added to all
// application casts together: entry length at the next layer (or the
// wire length, for the bottom layer) minus entry length at this one.
func (rep *Report) HeaderBytes() []int64 {
	out := make([]int64, len(rep.Layers))
	for i := range rep.Layers {
		next := rep.AppCastWire
		if i+1 < len(rep.Layers) {
			next = rep.Layers[i+1].CastEntryBytes
		}
		out[i] = next - rep.Layers[i].CastEntryBytes
	}
	return out
}

// CheckNesting verifies that the recorder's spans form a forest:
// every span closed, every child inside its parent's interval and
// begun after it, and self time within [0, Dur].
func CheckNesting(r *Recorder) error {
	if len(r.open) != 0 {
		return fmt.Errorf("probe: %d spans still open", len(r.open))
	}
	for i := range r.Spans {
		s := &r.Spans[i]
		if s.Self < 0 || s.Self > s.Dur {
			return fmt.Errorf("probe: span %d: self %d outside [0, %d]", i, s.Self, s.Dur)
		}
		if s.Parent < 0 {
			continue
		}
		if int(s.Parent) >= i {
			return fmt.Errorf("probe: span %d: parent %d does not precede it", i, s.Parent)
		}
		p := &r.Spans[s.Parent]
		if s.Start < p.Start || s.Start+int64(s.Dur) > p.Start+int64(p.Dur) {
			return fmt.Errorf("probe: span %d [%d,+%d] escapes parent %d [%d,+%d]",
				i, s.Start, s.Dur, s.Parent, p.Start, p.Dur)
		}
	}
	return nil
}

// spanJSON is the written form of a span; Cause is the parent index
// within the same endpoint's list.
type spanJSON struct {
	Layer  string `json:"layer"`
	Dir    string `json:"dir"`
	Type   string `json:"type"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int32  `json:"self_ns"`
	Cause  int32  `json:"cause"`
	Fabric int64  `json:"fabric_ns"`
	Cast   uint64 `json:"cast,omitempty"`
}

// WriteJSON writes one endpoint's spans as a JSON object
// {"endpoint": name, "spans": [...]}.
func (r *Recorder) WriteJSON(w io.Writer, endpoint string) error {
	out := struct {
		Endpoint string     `json:"endpoint"`
		Dropped  int        `json:"dropped"`
		Spans    []spanJSON `json:"spans"`
	}{Endpoint: endpoint, Dropped: r.Dropped, Spans: make([]spanJSON, len(r.Spans))}
	for i := range r.Spans {
		s := &r.Spans[i]
		name := "app"
		if s.Layer >= 0 {
			name = r.Names[s.Layer]
		}
		dir := "down"
		if s.Dir == Up {
			dir = "up"
		}
		out.Spans[i] = spanJSON{Layer: name, Dir: dir, Type: s.Type.String(), Start: s.Start,
			End: s.Start + int64(s.Dur), Self: s.Self, Cause: s.Parent, Fabric: s.Fabric, Cast: s.Tag}
	}
	return json.NewEncoder(w).Encode(out)
}
