package remote

import (
	"errors"
	"fmt"
	"strings"

	"jkernel/internal/core"
)

// --- error mapping ---------------------------------------------------------

// encodeWireErr maps a local invocation failure onto the wire.
func encodeWireErr(err error) (kind byte, class, msg string) {
	switch {
	case errors.Is(err, core.ErrRevoked):
		return errKindRevoked, "", err.Error()
	case errors.Is(err, core.ErrDomainTerminated):
		return errKindTerminated, "", err.Error()
	case errors.Is(err, core.ErrNoSuchMethod):
		return errKindNoMethod, "", err.Error()
	}
	var re *core.RemoteError
	if errors.As(err, &re) {
		return errKindRemote, re.Class, re.Msg
	}
	return errKindRemote, fmt.Sprintf("%T", err), err.Error()
}

// decodeWireErr rebuilds a local error from the wire, around the same
// kernel sentinels so errors.Is works transparently through proxies.
func decodeWireErr(kind byte, class, msg string) error {
	switch kind {
	case errKindRevoked:
		return wrapSentinel(core.ErrRevoked, msg)
	case errKindUnknownExport:
		return unknownExport{wrapSentinel(core.ErrRevoked, msg)}
	case errKindTerminated:
		return wrapSentinel(core.ErrDomainTerminated, msg)
	case errKindNoMethod:
		return wrapSentinel(core.ErrNoSuchMethod, msg)
	case errKindProtocol:
		return fmt.Errorf("remote: protocol error: %s", msg)
	default:
		return &core.RemoteError{Class: class, Msg: msg}
	}
}

// errUnknownExport is in the chain of a failure whose peer rejected the
// call before dispatch (errKindUnknownExport): the call never ran. Only
// the wire kind says so — a callee's own nested revocation, whatever its
// text, crosses as errKindRevoked.
var errUnknownExport = errors.New("unknown export")

// unknownExport is a revocation that also matches errUnknownExport.
type unknownExport struct{ error }

func (e unknownExport) Unwrap() []error { return []error{e.error, errUnknownExport} }

// wrapSentinel rebuilds a sentinel-rooted error without repeating the
// sentinel's own text (the wire message is usually err.Error() of the
// same sentinel on the far side).
func wrapSentinel(sentinel error, msg string) error {
	msg = strings.TrimPrefix(msg, sentinel.Error())
	msg = strings.TrimPrefix(msg, ": ")
	if msg == "" {
		return fmt.Errorf("%w (remote)", sentinel)
	}
	return fmt.Errorf("%w (remote): %s", sentinel, msg)
}
