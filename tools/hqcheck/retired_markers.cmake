# Fails when a marker of the retired line linter survives under the scanned
# directories: an `hq[l]int:` comment or a `// lock-[o]rder:` note. hqcheck
# reads neither, so a surviving one looks like a suppression or a proof that
# nothing enforces. The bracketed letters keep this file from matching itself.
#
#   cmake -DROOT=<repo> -DDIRS="src;tests;tools;bench;ci" -P retired_markers.cmake
set(found "")
foreach(dir IN LISTS DIRS)
  file(GLOB_RECURSE files "${ROOT}/${dir}/*")
  foreach(path IN LISTS files)
    file(STRINGS "${path}" hits REGEX "hq[l]int:|// lock-[o]rder:")
    file(RELATIVE_PATH rel "${ROOT}" "${path}")
    foreach(hit IN LISTS hits)
      string(APPEND found "${rel}: ${hit}\n")
    endforeach()
  endforeach()
endforeach()
if(found)
  message(FATAL_ERROR "retired linter markers remain; use hqcheck:allow(<rule>) "
                      "or a ranked Mutex instead:\n${found}")
endif()
