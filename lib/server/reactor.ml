(* epoll with a select fallback; see reactor.mli for the contract. *)

external epoll_create : unit -> int = "suu_epoll_create"
external epoll_ctl : int -> int -> int -> int -> int = "suu_epoll_ctl"
external epoll_wait_raw : int -> int -> int array -> int = "suu_epoll_wait"

(* On Unix a file_descr is an immediate int; this is the same identity
   the stdlib's unixsupport uses internally. *)
external fd_int : Unix.file_descr -> int = "%identity"
external int_fd : int -> Unix.file_descr = "%identity"

(* epoll constants (asm-generic, stable ABI). *)
let epollin = 0x001
let epollout = 0x004
let epollerr = 0x008
let epollhup = 0x010
let ctl_add = 1
let ctl_del = 2
let ctl_mod = 3

type reg = { fd : Unix.file_descr; mutable read : bool; mutable write : bool }

type backend =
  | Epoll of { epfd : int; buf : int array }
  | Select

type event = { fd : Unix.file_descr; readable : bool; writable : bool }

type t = {
  backend : backend;
  regs : (int, reg) Hashtbl.t; (* keyed by the raw fd int *)
}

let max_events = 1024

let create () =
  let backend =
    match epoll_create () with
    | epfd when epfd >= 0 -> Epoll { epfd; buf = Array.make (2 * max_events) 0 }
    | _ -> Select
  in
  { backend; regs = Hashtbl.create 64 }

let backend t = match t.backend with Epoll _ -> "epoll" | Select -> "select"

let mask ~read ~write =
  (if read then epollin else 0) lor if write then epollout else 0

let ctl_exn t op fd events =
  match t.backend with
  | Select -> ()
  | Epoll { epfd; _ } ->
      if epoll_ctl epfd op (fd_int fd) events < 0 then
        raise (Unix.Unix_error (Unix.EINVAL, "Reactor.epoll_ctl", ""))

let add t fd ~read ~write =
  let key = fd_int fd in
  if Hashtbl.mem t.regs key then
    invalid_arg "Reactor.add: fd already registered";
  Hashtbl.replace t.regs key { fd; read; write };
  ctl_exn t ctl_add fd (mask ~read ~write)

let modify t fd ~read ~write =
  match Hashtbl.find_opt t.regs (fd_int fd) with
  | None -> invalid_arg "Reactor.modify: fd not registered"
  | Some r ->
      if r.read <> read || r.write <> write then begin
        r.read <- read;
        r.write <- write;
        ctl_exn t ctl_mod fd (mask ~read ~write)
      end

let remove t fd =
  let key = fd_int fd in
  if Hashtbl.mem t.regs key then begin
    Hashtbl.remove t.regs key;
    (* The kernel drops the registration on close anyway; an EBADF-ish
       failure here (fd already closed by a racing path) is benign. *)
    match t.backend with
    | Select -> ()
    | Epoll { epfd; _ } -> ignore (epoll_ctl epfd ctl_del (fd_int fd) 0)
  end

let wait_epoll t epfd buf ~timeout_ms =
  let rec go () =
    match epoll_wait_raw epfd timeout_ms buf with
    | -2 -> go () (* EINTR *)
    | n when n < 0 -> raise (Unix.Unix_error (Unix.EINVAL, "Reactor.wait", ""))
    | n ->
        let evs = ref [] in
        for i = n - 1 downto 0 do
          let key = buf.(2 * i) and bits = buf.((2 * i) + 1) in
          (* A registration can vanish between the kernel reporting the
             event and us mapping it back; skip stale fds. *)
          match Hashtbl.find_opt t.regs key with
          | None -> ()
          | Some _ ->
              let err = bits land (epollerr lor epollhup) <> 0 in
              evs :=
                { fd = int_fd key;
                  readable = err || bits land epollin <> 0;
                  writable = err || bits land epollout <> 0 }
                :: !evs
        done;
        !evs
  in
  go ()

let wait_select t ~timeout_ms =
  let rd, wr =
    Hashtbl.fold
      (fun _ r (rd, wr) ->
        ((if r.read then r.fd :: rd else rd),
         if r.write then r.fd :: wr else wr))
      t.regs ([], [])
  in
  let timeout =
    if timeout_ms < 0 then -1.0 else float_of_int timeout_ms /. 1000.0
  in
  let rec go () =
    match Unix.select rd wr [] timeout with
    | rds, wrs, _ ->
        let tbl = Hashtbl.create 16 in
        let put fd readable writable =
          let key = fd_int fd in
          match Hashtbl.find_opt tbl key with
          | Some e ->
              Hashtbl.replace tbl key
                { e with
                  readable = e.readable || readable;
                  writable = e.writable || writable }
          | None -> Hashtbl.add tbl key { fd; readable; writable }
        in
        List.iter (fun fd -> put fd true false) rds;
        List.iter (fun fd -> put fd false true) wrs;
        Hashtbl.fold (fun _ e acc -> e :: acc) tbl []
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let wait t ~timeout_ms =
  match t.backend with
  | Epoll { epfd; buf } -> wait_epoll t epfd buf ~timeout_ms
  | Select -> wait_select t ~timeout_ms
