package vslog

import (
	"horus/internal/core"
	"horus/internal/message"
	"horus/internal/wire"
)

// PushVector pushes a count vector: what one member tells the others of
// its column of the stability matrix, a count per member of the view id
// names, in rank order, then id. MBRSHIP gossips its deliveries this way
// and STABLE its application's acks. The ID is the whole name: a
// coordinator never issues one ViewID twice (MBRSHIP numbers a successor
// above every view it was flushed from, and an endpoint's epoch only
// grows), so it names the members, and with them what each rank means,
// without listing them.
func PushVector(m *message.Message, id core.ViewID, counts []uint64) {
	wire.PushCounts(m, counts)
	wire.PushViewID(m, id)
}

// RaiseVector pops a vector pushed by PushVector and, when it was sent
// in v and holds a count per member of v, raises the column of from's
// rank in matrix, built over v, to its counts where they lie. It
// reports whether any cell rose; a vector from another view, of another
// length or from outside v raises nothing. It allocates nothing.
func RaiseVector(m *message.Message, v *core.View, matrix *core.StabilityMatrix, from core.EndpointID) bool {
	if v == nil || matrix == nil {
		return false
	}
	if wire.PopKnownViewID(m, v.Members) != v.ID || m.PopUint() != uint64(len(v.Members)) {
		return false
	}
	j := v.Rank(from)
	if j < 0 {
		return false
	}
	changed := false
	for i := range v.Members {
		if matrix.Raise(i, j, m.PopUint()) {
			changed = true
		}
	}
	return changed
}
