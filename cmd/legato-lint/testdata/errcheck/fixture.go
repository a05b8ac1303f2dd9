// Package errcheck is the errcheck pass's fixture: one bare call of a
// package-local function that returns an error, which the pass flags, and
// one checked call, which it does not.
package errcheck

import "errors"

func save() error { return errors.New("disk full") }

func flush() {
	save()
}

func commit() error {
	if err := save(); err != nil {
		return err
	}
	return nil
}
