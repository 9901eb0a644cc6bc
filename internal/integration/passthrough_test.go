package integration

import (
	"reflect"
	"slices"
	"testing"

	"horus/internal/core"
	"horus/internal/layers/adapt"
	"horus/internal/layers/chksum"
	"horus/internal/layers/compress"
	"horus/internal/layers/crypt"
	"horus/internal/layers/fc"
	"horus/internal/layers/frag"
	"horus/internal/layers/gkey"
	"horus/internal/layers/hbeat"
	"horus/internal/layers/mlog"
	"horus/internal/layers/nnak"
	"horus/internal/layers/sign"
	"horus/internal/layertest"
	"horus/internal/message"
)

// TestLayersPassThroughWhatTheyDoNotHandle audits the property that
// routing rests on. A stack hands every event to every layer, so a layer
// must hand on untouched every event kind it has nothing to do for. Each
// row below is a layer and the kinds it acts on, per direction; every
// other kind of Tables 1–2 is one the layer passes through. Each such
// kind is driven through the layer alone. The same event must come out
// on the far side exactly once, with the same message and header
// length, nothing must come out on the near side, and the layer's Stats
// must not move.
func TestLayersPassThroughWhatTheyDoNotHandle(t *testing.T) {
	key := []byte("0123456789abcdef")
	for _, row := range []struct {
		factory  core.Factory
		name     string
		actsDown []core.EventType
		actsUp   []core.EventType
	}{
		{adapt.New, "ADAPT",
			[]core.EventType{core.DCast, core.DSend, core.DView, core.DDestroy, core.DDump},
			[]core.EventType{core.USuspect, core.UView}},
		{chksum.New, "CHKSUM",
			[]core.EventType{core.DCast, core.DSend, core.DLocate, core.DDump},
			[]core.EventType{core.UCast, core.USend, core.ULocate}},
		{compress.New, "COMPRESS",
			[]core.EventType{core.DCast, core.DSend, core.DDump},
			[]core.EventType{core.UCast, core.USend}},
		{crypt.New(key), "CRYPT",
			[]core.EventType{core.DCast, core.DSend, core.DLocate, core.DDump},
			[]core.EventType{core.UCast, core.USend, core.ULocate}},
		{fc.New, "FC",
			[]core.EventType{core.DCast, core.DSend, core.DView, core.DDump},
			[]core.EventType{core.UCast, core.USend, core.UView}},
		{frag.New, "FRAG",
			[]core.EventType{core.DCast, core.DSend, core.DView, core.DDump},
			[]core.EventType{core.UCast, core.USend, core.ULostMessage}},
		{gkey.New(key), "GKEY",
			[]core.EventType{core.DCast, core.DSend, core.DDump},
			[]core.EventType{core.UCast, core.USend, core.UView}},
		{hbeat.New, "HBEAT",
			[]core.EventType{core.DCast, core.DSend, core.DView, core.DDestroy, core.DDump},
			[]core.EventType{core.UCast, core.USend, core.UView}},
		{mlog.New(mlog.NewMemStore()), "MLOG",
			[]core.EventType{core.DDump},
			[]core.EventType{core.UCast, core.UView}},
		{nnak.New, "NNAK",
			[]core.EventType{core.DCast, core.DSend, core.DDestroy, core.DDump},
			nil},
		{sign.New(key), "SIGN",
			[]core.EventType{core.DCast, core.DSend, core.DLocate, core.DDump},
			[]core.EventType{core.UCast, core.USend, core.ULocate}},
	} {
		t.Run(row.name, func(t *testing.T) {
			h := layertest.New(t, row.factory)
			stats := reflect.ValueOf(h.G.Focus(row.name)).MethodByName("Stats")
			if !stats.IsValid() {
				t.Fatalf("%s has no Stats method", row.name)
			}
			snapshot := func() any { return stats.Call(nil)[0].Interface() }
			pass := func(kind core.EventType, down bool) {
				t.Helper()
				msg := message.New([]byte("body"))
				msg.PushUint32(7)
				hdr := msg.HeaderLen()
				ev := &core.Event{Type: kind, Msg: msg, Source: layertest.ID("p", 2), Detail: &core.Detail{}}
				h.Reset()
				before := snapshot()
				far, near := &h.Bot.DownEvents, &h.Top.UpEvents
				if down {
					h.InjectDown(ev)
				} else {
					h.InjectUp(ev)
					far, near = near, far
				}
				if len(*far) != 1 || (*far)[0] != ev || len(*near) != 0 {
					t.Errorf("%v: %d out on the far side (want this event once), %d on the near side", kind, len(*far), len(*near))
				}
				if ev.Msg != msg || msg.HeaderLen() != hdr {
					t.Errorf("%v: message replaced or its headers moved (%d header bytes, want %d)", kind, ev.Msg.HeaderLen(), hdr)
				}
				if after := snapshot(); !reflect.DeepEqual(after, before) {
					t.Errorf("%v: stats %+v, want %+v", kind, after, before)
				}
			}
			for kind := core.DCast; kind <= core.DLocate; kind++ {
				if !slices.Contains(row.actsDown, kind) {
					pass(kind, true)
				}
			}
			for kind := core.UPacket; kind <= core.USwitch; kind++ {
				if !slices.Contains(row.actsUp, kind) {
					pass(kind, false)
				}
			}
		})
	}
}
