package vmkit

import (
	"fmt"
	"sync/atomic"
	"time"
)

var hashCounter atomic.Int64

// identityHash lazily assigns a stable identity hash to o, in the side
// struct it shares with o's monitor.
func identityHash(o *Object) int64 {
	m := o.inflate()
	if h := m.hash.Load(); h != 0 {
		return h
	}
	if n := hashCounter.Add(1); m.hash.CompareAndSwap(0, n) {
		return n
	}
	return m.hash.Load()
}

func (vm *VM) npe(format string, args ...any) *Object {
	return vm.Throwf(ClassNullPointerEx, format, args...)
}

func registerBuiltinNatives(vm *VM) {
	reg := vm.RegisterNative

	// ---- jk/lang/Object ----
	reg("jk/lang/Object.hashCode:()I", func(env *Env, recv *Object, args []Value) (Value, *Object) {
		return IntVal(identityHash(recv)), nil
	})
	reg("jk/lang/Object.toString:()Ljk/lang/String;", func(env *Env, recv *Object, args []Value) (Value, *Object) {
		return env.NewString(fmt.Sprintf("%s@%d", recv.Class.Name, identityHash(recv)))
	})

	// ---- jk/lang/String ----
	reg("jk/lang/String.length:()I", func(env *Env, recv *Object, args []Value) (Value, *Object) {
		return IntVal(int64(len(StringBytes(recv)))), nil
	})
	reg("jk/lang/String.charAt:(I)I", func(env *Env, recv *Object, args []Value) (Value, *Object) {
		b := StringBytes(recv)
		i := args[0].I
		if i < 0 || int(i) >= len(b) {
			return Value{}, env.VM.Throwf(ClassIndexEx, "charAt(%d) of %d", i, len(b))
		}
		return IntVal(int64(b[i])), nil
	})
	reg("jk/lang/String.equals:(Ljk/lang/Object;)I", func(env *Env, recv *Object, args []Value) (Value, *Object) {
		other := args[0].R
		if other == nil || other.Class == nil || other.Class.Name != ClassString {
			return IntVal(0), nil
		}
		if string(StringBytes(recv)) == string(StringBytes(other)) {
			return IntVal(1), nil
		}
		return IntVal(0), nil
	})
	reg("jk/lang/String.hashCode:()I", func(env *Env, recv *Object, args []Value) (Value, *Object) {
		var h int64
		for _, b := range StringBytes(recv) {
			h = h*31 + int64(b)
		}
		return IntVal(h), nil
	})
	reg("jk/lang/String.concat:(Ljk/lang/String;)Ljk/lang/String;", func(env *Env, recv *Object, args []Value) (Value, *Object) {
		if args[0].R == nil {
			return Value{}, env.VM.npe("concat(null)")
		}
		return env.NewString(string(StringBytes(recv)) + string(StringBytes(args[0].R)))
	})
	reg("jk/lang/String.substring:(II)Ljk/lang/String;", func(env *Env, recv *Object, args []Value) (Value, *Object) {
		b := StringBytes(recv)
		from, to := args[0].I, args[1].I
		if from < 0 || to < from || int(to) > len(b) {
			return Value{}, env.VM.Throwf(ClassIndexEx, "substring(%d,%d) of %d", from, to, len(b))
		}
		return env.NewString(string(b[from:to]))
	})
	reg("jk/lang/String.getBytes:()[B", func(env *Env, recv *Object, args []Value) (Value, *Object) {
		// Returns a copy: String is immutable; handing out the internal
		// array would be the exact hazard the paper warns about.
		src := StringBytes(recv)
		arr, err := env.NS.newArray("[B", len(src), env.Thread.Account)
		if err != nil {
			return Value{}, env.VM.Throwf(ClassError, "%v", err)
		}
		copy(arr.Bytes, src)
		return RefVal(arr), nil
	})
	reg("jk/lang/String.indexOf:(I)I", func(env *Env, recv *Object, args []Value) (Value, *Object) {
		b := StringBytes(recv)
		c := byte(args[0].I)
		for i := range b {
			if b[i] == c {
				return IntVal(int64(i)), nil
			}
		}
		return IntVal(-1), nil
	})
	reg("jk/lang/String.toString:()Ljk/lang/String;", func(env *Env, recv *Object, args []Value) (Value, *Object) {
		return RefVal(recv), nil
	})
	reg("jk/lang/String.fromBytes:([B)Ljk/lang/String;", func(env *Env, recv *Object, args []Value) (Value, *Object) {
		if args[0].R == nil {
			return Value{}, env.VM.npe("fromBytes(null)")
		}
		return env.NewString(string(args[0].R.Bytes))
	})
	reg("jk/lang/String.valueOfInt:(I)Ljk/lang/String;", func(env *Env, recv *Object, args []Value) (Value, *Object) {
		return env.NewString(fmt.Sprintf("%d", args[0].I))
	})

	// ---- jk/lang/System (per-namespace output) ----
	reg("jk/lang/System.println:(Ljk/lang/String;)V", func(env *Env, recv *Object, args []Value) (Value, *Object) {
		w := env.NS.Output
		if w == nil {
			w = env.VM.Stdout
		}
		fmt.Fprintln(w, StringText(args[0].R))
		return Value{}, nil
	})
	reg("jk/lang/System.printInt:(I)V", func(env *Env, recv *Object, args []Value) (Value, *Object) {
		w := env.NS.Output
		if w == nil {
			w = env.VM.Stdout
		}
		fmt.Fprintln(w, args[0].I)
		return Value{}, nil
	})
	reg("jk/lang/System.timeNanos:()I", func(env *Env, recv *Object, args []Value) (Value, *Object) {
		return IntVal(time.Now().UnixNano()), nil
	})

	// ---- jk/lang/StringBuilder ----
	sbFields := func(recv *Object) (bufF, lenF *Field) {
		return recv.Class.FieldByName("buf"), recv.Class.FieldByName("len")
	}
	sbAppend := func(env *Env, recv *Object, data []byte) *Object {
		bufF, lenF := sbFields(recv)
		buf := recv.Fields[bufF.Slot].R
		n := recv.Fields[lenF.Slot].I
		if buf == nil {
			arr, err := env.NS.newArray("[B", 16+len(data), env.Thread.Account)
			if err != nil {
				return env.VM.Throwf(ClassError, "%v", err)
			}
			buf = arr
			recv.Fields[bufF.Slot] = RefVal(buf)
		}
		if int(n)+len(data) > len(buf.Bytes) {
			arr, err := env.NS.newArray("[B", 2*(int(n)+len(data)), env.Thread.Account)
			if err != nil {
				return env.VM.Throwf(ClassError, "%v", err)
			}
			copy(arr.Bytes, buf.Bytes[:n])
			buf = arr
			recv.Fields[bufF.Slot] = RefVal(buf)
		}
		copy(buf.Bytes[n:], data)
		recv.Fields[lenF.Slot] = IntVal(n + int64(len(data)))
		return nil
	}
	reg("jk/lang/StringBuilder.appendStr:(Ljk/lang/String;)Ljk/lang/StringBuilder;", func(env *Env, recv *Object, args []Value) (Value, *Object) {
		if th := sbAppend(env, recv, StringBytes(args[0].R)); th != nil {
			return Value{}, th
		}
		return RefVal(recv), nil
	})
	reg("jk/lang/StringBuilder.appendInt:(I)Ljk/lang/StringBuilder;", func(env *Env, recv *Object, args []Value) (Value, *Object) {
		if th := sbAppend(env, recv, []byte(fmt.Sprintf("%d", args[0].I))); th != nil {
			return Value{}, th
		}
		return RefVal(recv), nil
	})
	reg("jk/lang/StringBuilder.toString:()Ljk/lang/String;", func(env *Env, recv *Object, args []Value) (Value, *Object) {
		bufF, lenF := sbFields(recv)
		buf := recv.Fields[bufF.Slot].R
		n := recv.Fields[lenF.Slot].I
		if buf == nil {
			return env.NewString("")
		}
		return env.NewString(string(buf.Bytes[:n]))
	})
}
