(* A mutable directory server state with LDAP-style update operations.

   The paper's languages are read-only over an instance; deployed
   directories also take updates ("read/write interactive access",
   Section 1).  This module wraps an {!Instance} with the standard
   update suite — add, delete, modify (add/delete/replace values),
   modify-dn with subtree rename — enforcing Definition 3.2 plus the
   LDAP structural rules: an entry's parent must exist (unless the entry
   is added as a namespace root), and deletion is leaf-only unless
   subtree deletion is requested.

   Every mutation revalidates the affected entries, so a directory can
   never leave the model. *)

type update = { dn : Dn.t; subtree : bool }

type t = {
  mutable instance : Instance.t;
  mutable generation : int;
  mutable hooks : (update -> unit) list;
}

type error =
  | Invalid of Instance.violation
  | No_such_entry of Dn.t
  | Parent_missing of Dn.t
  | Has_children of Dn.t
  | Rdn_would_change of Dn.t  (* modify may not break rdn(r) <= val(r) *)
  | Moved_below_itself of Dn.t  (* modify-dn into the entry's own subtree *)

let pp_error ppf = function
  | Invalid v -> Instance.pp_violation ppf v
  | No_such_entry dn -> Fmt.pf ppf "no such entry: %a" Dn.pp dn
  | Parent_missing dn -> Fmt.pf ppf "parent of %a does not exist" Dn.pp dn
  | Has_children dn -> Fmt.pf ppf "%a has children (delete them first)" Dn.pp dn
  | Rdn_would_change dn ->
      Fmt.pf ppf "modification would remove an rdn value of %a" Dn.pp dn
  | Moved_below_itself dn ->
      Fmt.pf ppf "cannot move %a under itself or its own subtree" Dn.pp dn

let create instance = { instance; generation = 0; hooks = [] }
let of_schema schema = create (Instance.empty schema)
let instance t = t.instance
let schema t = Instance.schema t.instance
let size t = Instance.size t.instance

let generation t = t.generation
(* bumped on every successful mutation; a result cache's safety net *)

let on_update t f = t.hooks <- t.hooks @ [ f ]

let commit t instance updates =
  t.instance <- instance;
  t.generation <- t.generation + 1;
  List.iter (fun f -> List.iter f updates) t.hooks;
  Ok ()

(* --- Add ----------------------------------------------------------------- *)

let add ?(as_root = false) t entry =
  let dn = Entry.dn entry in
  let parent_ok =
    as_root
    ||
    match Dn.parent dn with
    | None | Some [] -> true
    | Some p -> Instance.mem t.instance p
  in
  if not parent_ok then Error (Parent_missing dn)
  else
    match Instance.add t.instance entry with
    | updated -> commit t updated [ { dn; subtree = false } ]
    | exception Instance.Invalid v -> Error (Invalid v)

(* --- Delete -------------------------------------------------------------- *)

(* [dn] is present, so anything else in its key range lies below it. *)
let has_children t dn = Instance.subtree_size t.instance dn > 1

let delete ?(subtree = false) t dn =
  if not (Instance.mem t.instance dn) then Error (No_such_entry dn)
  else if subtree then
    let doomed = Instance.subtree t.instance dn in
    commit t
      (List.fold_left
         (fun acc e -> Instance.remove acc (Entry.dn e))
         t.instance doomed)
      [ { dn; subtree = true } ]
  else if has_children t dn then Error (Has_children dn)
  else commit t (Instance.remove t.instance dn) [ { dn; subtree = false } ]

(* --- Modify -------------------------------------------------------------- *)

type modification =
  | Add_value of string * Value.t
  | Delete_value of string * Value.t
  | Delete_attr of string
  | Replace of string * Value.t list

let apply_modification attrs = function
  | Add_value (a, v) ->
      if List.exists (fun (a', v') -> String.equal a a' && Value.equal v v') attrs
      then attrs  (* val(r) is a set *)
      else (a, v) :: attrs
  | Delete_value (a, v) ->
      List.filter
        (fun (a', v') -> not (String.equal a a' && Value.equal v v'))
        attrs
  | Delete_attr a -> List.filter (fun (a', _) -> not (String.equal a a')) attrs
  | Replace (a, vs) ->
      List.filter (fun (a', _) -> not (String.equal a a')) attrs
      @ List.map (fun v -> (a, v)) vs

let modify t dn mods =
  match Instance.find t.instance dn with
  | None -> Error (No_such_entry dn)
  | Some e ->
      let attrs = List.fold_left apply_modification (Entry.attrs e) mods in
      let updated = Entry.make dn attrs in
      (* the rdn must stay among the values (Def 3.2(d)(ii)) *)
      let rdn_ok =
        match Entry.rdn updated with
        | Some rdn -> Rdn.subset_of_values rdn (Entry.attrs updated)
        | None -> false
      in
      if not rdn_ok then Error (Rdn_would_change dn)
      else begin
        match Instance.replace t.instance updated with
        | updated_instance -> commit t updated_instance [ { dn; subtree = false } ]
        | exception Instance.Invalid v -> Error (Invalid v)
      end

(* --- Modify dn (rename) ---------------------------------------------------- *)

(* Rebase [dn] from old subtree root [from_] to [to_]: keep the rdn's
   below [from_], splice them onto [to_]. *)
let rebase_dn ~from_ ~to_ dn =
  let rec prefix n l =
    if n = 0 then [] else List.hd l :: prefix (n - 1) (List.tl l)
  in
  prefix (Dn.depth dn - Dn.depth from_) dn @ to_

(* Rename an entry: change its rdn and/or move it under a new superior.
   All descendants move with it; their attributes are untouched, but the
   renamed entry's attribute set is updated so the new rdn's pairs are
   present (and, if [delete_old_rdn], the old rdn's pairs are dropped
   unless still part of the new rdn). *)
let modify_dn ?(delete_old_rdn = true) ?new_superior t dn ~new_rdn =
  match Instance.find t.instance dn with
  | None -> Error (No_such_entry dn)
  | Some e -> (
      let parent =
        match new_superior with
        | Some p -> p
        | None -> ( match Dn.parent dn with Some p -> p | None -> [])
      in
      let parent_exists =
        parent = [] || Instance.mem t.instance parent
      in
      (* a superior at or below the entry would cut the moved subtree
         off from the namespace *)
      if Dn.is_self_or_descendant_of ~descendant:parent ~ancestor:dn then
        Error (Moved_below_itself dn)
      else if not parent_exists then Error (Parent_missing (Dn.child parent new_rdn))
      else
        let new_dn = Dn.child parent new_rdn in
        if Instance.mem t.instance new_dn && not (Dn.equal new_dn dn) then
          Error (Invalid (Instance.Duplicate_dn new_dn))
        else
          (* adjust the renamed entry's attributes *)
          let old_rdn_pairs =
            match Entry.rdn e with Some r -> Rdn.pairs r | None -> []
          in
          let new_rdn_pairs = Rdn.pairs new_rdn in
          let attrs =
            Entry.attrs e
            |> List.filter (fun (a, v) ->
                   (not delete_old_rdn)
                   || (not
                         (List.exists
                            (fun (a', v') ->
                              String.equal a a' && Value.equal v v')
                            old_rdn_pairs))
                   || List.exists
                        (fun (a', v') -> String.equal a a' && Value.equal v v')
                        new_rdn_pairs)
          in
          let attrs =
            List.fold_left
              (fun acc (a, v) ->
                if
                  List.exists
                    (fun (a', v') -> String.equal a a' && Value.equal v v')
                    acc
                then acc
                else (a, v) :: acc)
              attrs new_rdn_pairs
          in
          let renamed = Entry.make new_dn attrs in
          (* move the whole subtree *)
          let descendants =
            List.filter
              (fun d -> not (Dn.equal (Entry.dn d) dn))
              (Instance.subtree t.instance dn)
          in
          let without =
            List.fold_left
              (fun acc d -> Instance.remove acc (Entry.dn d))
              (Instance.remove t.instance dn)
              descendants
          in
          match
            let with_renamed = Instance.add without renamed in
            List.fold_left
              (fun acc d ->
                let moved_dn = rebase_dn ~from_:dn ~to_:new_dn (Entry.dn d) in
                Instance.add acc (Entry.make moved_dn (Entry.attrs d)))
              with_renamed descendants
          with
          | updated ->
              (* the whole subtree moved: both roots' subtrees changed *)
              commit t updated
                [ { dn; subtree = true }; { dn = new_dn; subtree = true } ]
          | exception Instance.Invalid v -> Error (Invalid v))

(* --- Convenience ------------------------------------------------------------ *)

let find t dn = Instance.find t.instance dn
let mem t dn = Instance.mem t.instance dn
let validate t = Instance.validate t.instance

(* Apply a batch atomically: all-or-nothing. *)
let batch t (ops : (t -> (unit, error) result) list) =
  let saved = t.instance and saved_gen = t.generation in
  let rec run = function
    | [] -> Ok ()
    | op :: rest -> (
        match op t with
        | Ok () -> run rest
        | Error e ->
            t.instance <- saved;
            t.generation <- saved_gen;
            (* the successful prefix already notified; the rollback
               reverses it, so re-notify conservatively for everything *)
            List.iter (fun f -> f { dn = Dn.root; subtree = true }) t.hooks;
            Error e)
  in
  run ops
