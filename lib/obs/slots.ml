(* The per-domain cell lifecycle (see slots.mli).  The main domain
   exits with the process, so its cell is never queued: exit-time
   exports can still write and read it. *)

let kept_exited = 16

type ('c, 'r) t = {
  mu : Mutex.t;
  cells : (int * 'c) list ref;
  retired : 'r ref;
  empty : 'r;
  key : 'c Domain.DLS.key;
}

let create ?(on_exit = ignore) ~fresh ~retired ~retire () =
  let mu = Mutex.create () and cells = ref [] and total = ref retired in
  let exited = Queue.create () (* oldest exit first *) in
  let claim () =
    let c = ((Domain.self () :> int), fresh ()) in
    Mutex.protect mu (fun () -> cells := c :: !cells);
    if not (Domain.is_main_domain ()) then
      Domain.at_exit (fun () ->
          Mutex.protect mu (fun () ->
              on_exit (snd c);
              Queue.push c exited;
              if Queue.length exited > kept_exited then begin
                let old = Queue.pop exited in
                total := retire !total (snd old);
                cells := List.filter (fun x -> x != old) !cells
              end));
    snd c
  in
  { mu; cells; retired = total; empty = retired; key = Domain.DLS.new_key claim }

let get t = Domain.DLS.get t.key

(* The lock covers only the copy: a dropped cell is never written again
   and [retire] builds a new total, so the pair read here stays
   consistent while the caller walks it. *)
let read t =
  let retired, cells = Mutex.protect t.mu (fun () -> (!(t.retired), !(t.cells))) in
  (retired, List.sort (fun (a, _) (b, _) -> compare a b) cells)

let reset t f =
  Mutex.protect t.mu (fun () ->
      t.retired := t.empty;
      List.iter (fun (_, c) -> f c) !(t.cells))
