(** Schema descriptions exported by wrappers: a collection (an "interface" in
    the paper's IDL subset, Fig 3) is a named extent of objects with typed
    attributes. *)

type ty = Tbool | Tint | Tfloat | Tstring

val pp_ty : Format.formatter -> ty -> unit
(** Renders IDL-style type names ([long], [string], ...). *)

type attribute = { attr_name : string; attr_type : ty }

type collection = {
  coll_name : string;
  attributes : attribute list;
}

val collection : string -> (string * ty) list -> collection
(** [collection name [(attr, ty); ...]] builds a collection description. *)

val attribute_names : collection -> string list

val find_attribute : collection -> string -> attribute option

val has_attribute : collection -> string -> bool

val attr_index : collection -> string -> int option
(** Position of an attribute in the collection's tuple layout. *)
