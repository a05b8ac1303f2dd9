// Package output is the operator-output pass's fixture: one fmt.Println,
// which the pass flags, and one fmt.Fprintf to a caller's writer, which it
// does not.
package output

import (
	"fmt"
	"io"
)

func report(w io.Writer, n int) {
	fmt.Println("done", n)
	fmt.Fprintf(w, "done %d\n", n)
}
