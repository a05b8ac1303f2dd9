// Package b is the fixture tree's only caller of package a.
package b

import (
	"fmt"

	"fixture/internal/a"
)

var (
	_ a.Namer = a.T{}
	_         = fmt.Sprint(a.Used() + a.Sum(1, 2) + a.Box[int]{}.Get())
)
