type t = int Atomic.t

let create () = Atomic.make 0

let incr = Atomic.incr

let add t k =
  if k < 0 then invalid_arg "Counter.add: negative increment";
  ignore (Atomic.fetch_and_add t k)

let get = Atomic.get
