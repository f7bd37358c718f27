// Fixture for the errgate analyzer port: bare statements discarding
// I/O errors, the waiver, and the type-informed refinement.
package gate

import (
	"encoding/json"
	"io"
	"os"
)

func bare(f *os.File) {
	f.Close() // want `result of f\.Close\(\) is discarded`
}

func bareEncode(w io.Writer, v any) {
	json.NewEncoder(w).Encode(v) // want `result of \(\.\.\.\)\.Encode\(\) is discarded`
}

func waived(f *os.File) {
	f.Close() //fbvet:ok fixture: waiver
}

func explicitDiscard(f *os.File) {
	_ = f.Close()
}

func deferredOutOfScope(f *os.File) {
	defer f.Close()
}

type closerNoError interface {
	Close()
}

// errorlessClose is the type-informed refinement: the name matches but
// the call returns no error, so there is nothing to discard.
func errorlessClose(c closerNoError) {
	c.Close()
}
